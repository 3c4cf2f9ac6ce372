/**
 * @file
 * Implementation of the two-pass assembler.
 */

#include "asm/assembler.hpp"

#include <cctype>
#include <cstdlib>
#include <optional>
#include <vector>

#include "common/logging.hpp"
#include "isa/isa.hpp"

namespace cesp::assembler {

using isa::Opcode;

namespace {

/** One parsed source statement. */
struct Statement
{
    int line = 0;
    std::string label;          //!< optional "name:" prefix
    std::string mnemonic;       //!< instruction or ".directive"
    std::vector<std::string> operands;
    std::string string_arg;     //!< for .asciiz
    bool in_text = true;        //!< section at this statement
    uint32_t addr = 0;          //!< assigned in pass 1
};

/** Thrown internally to carry diagnostics to the driver. */
struct AsmError
{
    int line;
    std::string msg;
};

[[noreturn]] void
err(int line, const std::string &msg)
{
    throw AsmError{line, msg};
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
        c == '.' || c == '$';
}

/** Parse an integer literal: decimal, 0x hex, or 'c' char. */
std::optional<int64_t>
parseIntLiteral(const std::string &tok)
{
    if (tok.empty())
        return std::nullopt;
    if (tok.size() >= 3 && tok.front() == '\'' && tok.back() == '\'') {
        if (tok.size() == 3)
            return static_cast<int64_t>(tok[1]);
        if (tok.size() == 4 && tok[1] == '\\') {
            switch (tok[2]) {
              case 'n': return 10;
              case 't': return 9;
              case '0': return 0;
              case '\\': return 92;
              default: return std::nullopt;
            }
        }
        return std::nullopt;
    }
    const char *s = tok.c_str();
    char *end = nullptr;
    long long v = std::strtoll(s, &end, 0);
    if (end == s || *end != '\0')
        return std::nullopt;
    return v;
}

/** Split "name+off" / "name-off" into base symbol and offset. */
void
splitSymExpr(const std::string &tok, std::string &sym, int64_t &off)
{
    sym = tok;
    off = 0;
    for (size_t i = 1; i < tok.size(); ++i) {
        if (tok[i] == '+' || tok[i] == '-') {
            auto rest = parseIntLiteral(tok.substr(i + 1));
            if (!rest)
                return;
            sym = tok.substr(0, i);
            off = tok[i] == '+' ? *rest : -*rest;
            return;
        }
    }
}

/** Tokenize one line into an optional Statement. */
std::optional<Statement>
parseLine(const std::string &raw, int line_no)
{
    // Strip comments. '#' and ';' start comments outside of quotes.
    std::string line;
    bool in_quote = false;
    for (char c : raw) {
        if (c == '"')
            in_quote = !in_quote;
        if (!in_quote && (c == '#' || c == ';'))
            break;
        line += c;
    }

    Statement st;
    st.line = line_no;
    size_t i = 0;
    auto skip_ws = [&] {
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
    };

    skip_ws();
    if (i >= line.size())
        return std::nullopt;

    // Optional label.
    size_t j = i;
    while (j < line.size() && isIdentChar(line[j]))
        ++j;
    if (j < line.size() && line[j] == ':' && j > i) {
        st.label = line.substr(i, j - i);
        i = j + 1;
        skip_ws();
    }

    if (i >= line.size())
        return st; // label-only line

    // Mnemonic or directive.
    j = i;
    while (j < line.size() && isIdentChar(line[j]))
        ++j;
    if (j == i)
        err(line_no, "expected mnemonic, found '" +
            line.substr(i, 1) + "'");
    st.mnemonic = line.substr(i, j - i);
    for (char &c : st.mnemonic)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    i = j;
    skip_ws();

    // .asciiz keeps the raw quoted string.
    if (st.mnemonic == ".asciiz" || st.mnemonic == ".ascii") {
        if (i >= line.size() || line[i] != '"')
            err(line_no, st.mnemonic + " expects a quoted string");
        ++i;
        std::string s;
        while (i < line.size() && line[i] != '"') {
            char c = line[i++];
            if (c == '\\' && i < line.size()) {
                char e = line[i++];
                switch (e) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case '0': c = '\0'; break;
                  case '\\': c = '\\'; break;
                  case '"': c = '"'; break;
                  default:
                    err(line_no, "bad escape in string");
                }
            }
            s += c;
        }
        if (i >= line.size())
            err(line_no, "unterminated string");
        st.string_arg = s;
        return st;
    }

    // Comma-separated operands; "imm(reg)" stays one token.
    while (i < line.size()) {
        skip_ws();
        if (i >= line.size())
            break;
        size_t start = i;
        int paren = 0;
        while (i < line.size() && (line[i] != ',' || paren > 0)) {
            if (line[i] == '(')
                ++paren;
            else if (line[i] == ')')
                --paren;
            ++i;
        }
        std::string tok = line.substr(start, i - start);
        while (!tok.empty() &&
               std::isspace(static_cast<unsigned char>(tok.back())))
            tok.pop_back();
        if (tok.empty())
            err(line_no, "empty operand");
        st.operands.push_back(tok);
        if (i < line.size() && line[i] == ',')
            ++i;
    }
    return st;
}

/** The assembler state machine shared by the two passes. */
class Assembler
{
  public:
    explicit Assembler(const std::string &source)
    {
        int line_no = 0;
        size_t pos = 0;
        bool in_text = true;
        while (pos <= source.size()) {
            size_t nl = source.find('\n', pos);
            std::string line = source.substr(
                pos, nl == std::string::npos ? std::string::npos
                                             : nl - pos);
            ++line_no;
            auto st = parseLine(line, line_no);
            if (st) {
                if (st->mnemonic == ".text") {
                    in_text = true;
                } else if (st->mnemonic == ".data") {
                    in_text = false;
                } else {
                    st->in_text = in_text;
                    stmts_.push_back(*st);
                }
            }
            if (nl == std::string::npos)
                break;
            pos = nl + 1;
        }
    }

    Program
    run()
    {
        passOne();
        passTwo();
        Program p;
        p.symbols = symbols_;
        p.segments[kTextBase] = std::move(text_);
        if (!data_.empty())
            p.segments[kDataBase] = std::move(data_);
        auto it = symbols_.find("main");
        p.entry = it != symbols_.end() ? it->second : kTextBase;
        return p;
    }

  private:
    std::vector<Statement> stmts_;
    std::map<std::string, uint32_t> symbols_;
    std::vector<uint8_t> text_, data_;
    bool emitting_ = false; //!< pass 2 writes bytes

    // --- pass drivers ---------------------------------------------------

    void
    passOne()
    {
        for (auto &st : stmts_) {
            st.addr = here(st.in_text);
            if (!st.label.empty()) {
                if (symbols_.count(st.label))
                    err(st.line, "duplicate label '" + st.label + "'");
                symbols_[st.label] = st.addr;
            }
            if (!st.mnemonic.empty())
                process(st);
        }
    }

    void
    passTwo()
    {
        text_.clear();
        data_.clear();
        emitting_ = true;
        for (auto &st : stmts_) {
            if (st.mnemonic.empty())
                continue;
            uint32_t want = st.addr;
            if (here(st.in_text) != want)
                err(st.line, "phase error (pass size mismatch)");
            process(st);
        }
    }

    // --- location counters ----------------------------------------------

    std::vector<uint8_t> &
    section(bool in_text)
    {
        return in_text ? text_ : data_;
    }

    uint32_t
    here(bool in_text)
    {
        return (in_text ? kTextBase : kDataBase) +
            static_cast<uint32_t>(section(in_text).size());
    }

    void
    emitBytes(bool in_text, const void *src, size_t n)
    {
        auto &sec = section(in_text);
        const auto *p = static_cast<const uint8_t *>(src);
        sec.insert(sec.end(), p, p + n);
    }

    void
    emitWord(bool in_text, uint32_t w)
    {
        uint8_t b[4] = {
            static_cast<uint8_t>(w),
            static_cast<uint8_t>(w >> 8),
            static_cast<uint8_t>(w >> 16),
            static_cast<uint8_t>(w >> 24),
        };
        emitBytes(in_text, b, 4);
    }

    void
    skipBytes(bool in_text, size_t n)
    {
        auto &sec = section(in_text);
        sec.insert(sec.end(), n, 0);
    }

    // --- operand helpers --------------------------------------------------

    int
    reg(const Statement &st, size_t idx)
    {
        if (idx >= st.operands.size())
            err(st.line, "missing register operand");
        int r = isa::parseRegister(st.operands[idx]);
        if (r == isa::kNoReg)
            err(st.line, "bad register '" + st.operands[idx] + "'");
        return r;
    }

    /** Value of an integer-or-symbol expression (pass 2 only). */
    int64_t
    value(const Statement &st, const std::string &tok)
    {
        if (auto v = parseIntLiteral(tok))
            return *v;
        std::string sym;
        int64_t off;
        splitSymExpr(tok, sym, off);
        auto it = symbols_.find(sym);
        if (it == symbols_.end()) {
            if (!emitting_)
                return 0; // sizes never depend on symbol values
            err(st.line, "undefined symbol '" + sym + "'");
        }
        return static_cast<int64_t>(it->second) + off;
    }

    int64_t
    immOperand(const Statement &st, size_t idx)
    {
        if (idx >= st.operands.size())
            err(st.line, "missing immediate operand");
        return value(st, st.operands[idx]);
    }

    /** "imm(reg)" or "sym(reg)" or bare "sym" (reg = zero). */
    void
    memOperand(const Statement &st, size_t idx, int &base,
               int32_t &offset)
    {
        if (idx >= st.operands.size())
            err(st.line, "missing memory operand");
        const std::string &tok = st.operands[idx];
        size_t open = tok.find('(');
        if (open == std::string::npos) {
            base = 0;
            offset = static_cast<int32_t>(value(st, tok));
            return;
        }
        size_t close = tok.find(')', open);
        if (close == std::string::npos)
            err(st.line, "bad memory operand '" + tok + "'");
        std::string off_part = tok.substr(0, open);
        std::string reg_part = tok.substr(open + 1, close - open - 1);
        base = isa::parseRegister(reg_part);
        if (base == isa::kNoReg)
            err(st.line, "bad base register '" + reg_part + "'");
        offset = off_part.empty()
            ? 0 : static_cast<int32_t>(value(st, off_part));
    }

    uint16_t
    checkImm16(const Statement &st, int64_t v, bool is_signed)
    {
        if (is_signed) {
            if (v < -32768 || v > 32767)
                err(st.line, "immediate out of signed 16-bit range");
        } else {
            if (v < 0 || v > 65535)
                err(st.line, "immediate out of unsigned 16-bit range");
        }
        return static_cast<uint16_t>(v & 0xffff);
    }

    uint16_t
    branchOffset(const Statement &st, size_t idx)
    {
        int64_t target = immOperand(st, idx);
        if (!emitting_)
            return 0;
        int64_t delta = target - (static_cast<int64_t>(here(true)) + 4);
        if (delta & 3)
            err(st.line, "misaligned branch target");
        int64_t words = delta / 4;
        if (words < -32768 || words > 32767)
            err(st.line, "branch target out of range");
        return static_cast<uint16_t>(words & 0xffff);
    }

    void
    instr(const Statement &st, uint32_t word)
    {
        if (!st.in_text)
            err(st.line, "instruction outside .text");
        if (emitting_)
            emitWord(true, word);
        else
            skipBytes(true, 4);
    }

    // --- statement processing ---------------------------------------------

    void
    process(const Statement &st)
    {
        if (st.mnemonic[0] == '.') {
            directive(st);
            return;
        }
        if (pseudo(st))
            return;

        Opcode op;
        if (!isa::opcodeFromMnemonic(st.mnemonic, op))
            err(st.line, "unknown mnemonic '" + st.mnemonic + "'");
        const isa::OpInfo &info = isa::opInfo(op);

        switch (op) {
          case Opcode::NOP: case Opcode::HALT:
            instr(st, isa::encodeNone(op));
            return;
          case Opcode::PUTC:
            instr(st, isa::encodeR(op, 0, reg(st, 0), 0));
            return;
          case Opcode::JR:
            instr(st, isa::encodeR(op, 0, reg(st, 0), 0));
            return;
          case Opcode::JALR:
            instr(st, isa::encodeR(op, reg(st, 0), reg(st, 1), 0));
            return;
          case Opcode::J: case Opcode::JAL: {
            int64_t target = immOperand(st, 0);
            if (emitting_ && (target < 0 || target > 0x0fffffff))
                err(st.line, "jump target out of range");
            instr(st, isa::encodeJ(
                      op, static_cast<uint32_t>(target) & 0x0ffffffcu));
            return;
          }
          case Opcode::LUI: {
            int64_t v = immOperand(st, 1);
            instr(st, isa::encodeI(op, reg(st, 0), 0,
                                   checkImm16(st, v, false)));
            return;
          }
          case Opcode::FMVI:
            instr(st, isa::encodeR(op, reg(st, 0), reg(st, 1), 0));
            return;
          default:
            break;
        }

        switch (info.format) {
          case isa::Format::R:
            instr(st, isa::encodeR(op, reg(st, 0), reg(st, 1),
                                   reg(st, 2)));
            return;
          case isa::Format::I:
            switch (info.cls) {
              case isa::OpClass::Load: {
                int base;
                int32_t off;
                memOperand(st, 1, base, off);
                instr(st, isa::encodeI(op, reg(st, 0), base,
                                       checkImm16(st, off, true)));
                return;
              }
              case isa::OpClass::Store: {
                int base;
                int32_t off;
                memOperand(st, 1, base, off);
                instr(st, isa::encodeI(op, reg(st, 0), base,
                                       checkImm16(st, off, true)));
                return;
              }
              case isa::OpClass::BranchCond:
                instr(st, isa::encodeI(op, reg(st, 1), reg(st, 0),
                                       branchOffset(st, 2)));
                return;
              default: {
                // ALU immediate: op rt, rs, imm
                int64_t v = immOperand(st, 2);
                instr(st, isa::encodeI(op, reg(st, 0), reg(st, 1),
                                       checkImm16(st, v,
                                                  info.imm_signed)));
                return;
              }
            }
          default:
            err(st.line, "cannot assemble '" + st.mnemonic + "'");
        }
    }

    /** Expand pseudo-instructions; true if the mnemonic was one. */
    bool
    pseudo(const Statement &st)
    {
        const std::string &m = st.mnemonic;
        auto emitI = [&](Opcode op, int rt, int rs, uint16_t imm) {
            instr(st, isa::encodeI(op, rt, rs, imm));
        };
        auto emitR = [&](Opcode op, int rd, int rs, int rt) {
            instr(st, isa::encodeR(op, rd, rs, rt));
        };

        if (m == "li") {
            int rd = reg(st, 0);
            if (st.operands.size() < 2)
                err(st.line, "li needs a value");
            auto lit = parseIntLiteral(st.operands[1]);
            if (!lit)
                err(st.line, "li needs an integer literal (use la "
                    "for symbols)");
            int64_t v = *lit;
            if (v < -2147483648LL || v > 4294967295LL)
                err(st.line, "li value out of 32-bit range");
            uint32_t u = static_cast<uint32_t>(v);
            if (v >= -32768 && v <= 32767) {
                emitI(Opcode::ADDI, rd, 0,
                      static_cast<uint16_t>(u & 0xffff));
            } else if ((u >> 16) == 0) {
                emitI(Opcode::ORI, rd, 0, static_cast<uint16_t>(u));
            } else {
                emitI(Opcode::LUI, rd, 0,
                      static_cast<uint16_t>(u >> 16));
                if ((u & 0xffff) != 0)
                    emitI(Opcode::ORI, rd, rd,
                          static_cast<uint16_t>(u & 0xffff));
            }
            return true;
        }
        if (m == "la") {
            int rd = reg(st, 0);
            int64_t v = immOperand(st, 1);
            uint32_t u = static_cast<uint32_t>(v);
            // Always two instructions so pass-1 sizing is stable.
            emitI(Opcode::LUI, rd, 0, static_cast<uint16_t>(u >> 16));
            emitI(Opcode::ORI, rd, rd,
                  static_cast<uint16_t>(u & 0xffff));
            return true;
        }
        if (m == "move") {
            emitR(Opcode::ADD, reg(st, 0), reg(st, 1), 0);
            return true;
        }
        if (m == "not") {
            emitR(Opcode::NOR, reg(st, 0), reg(st, 1), 0);
            return true;
        }
        if (m == "neg") {
            emitR(Opcode::SUB, reg(st, 0), 0, reg(st, 1));
            return true;
        }
        if (m == "subi") {
            int64_t v = immOperand(st, 2);
            emitI(Opcode::ADDI, reg(st, 0), reg(st, 1),
                  checkImm16(st, -v, true));
            return true;
        }
        if (m == "b") {
            int64_t target = immOperand(st, 0);
            if (emitting_ && (target < 0 || target > 0x0fffffff))
                err(st.line, "branch target out of range");
            instr(st, isa::encodeJ(Opcode::J,
                      static_cast<uint32_t>(target) & 0x0ffffffcu));
            return true;
        }
        if (m == "beqz" || m == "bnez") {
            Statement copy = st;
            copy.mnemonic = m == "beqz" ? "beq" : "bne";
            if (st.operands.size() < 2)
                err(st.line, m + " needs 2 operands");
            copy.operands = {st.operands[0], "zero", st.operands[1]};
            process(copy);
            return true;
        }
        if (m == "bgt" || m == "ble" || m == "bgtu" || m == "bleu") {
            Statement copy = st;
            copy.mnemonic = (m == "bgt") ? "blt"
                : (m == "ble") ? "bge"
                : (m == "bgtu") ? "bltu" : "bgeu";
            if (st.operands.size() < 3)
                err(st.line, m + " needs 3 operands");
            copy.operands = {st.operands[1], st.operands[0],
                             st.operands[2]};
            process(copy);
            return true;
        }
        return false;
    }

    void
    directive(const Statement &st)
    {
        const std::string &m = st.mnemonic;
        bool t = st.in_text;
        if (m == ".word") {
            for (const auto &tok : st.operands) {
                uint32_t v = static_cast<uint32_t>(value(st, tok));
                if (emitting_)
                    emitWord(t, v);
                else
                    skipBytes(t, 4);
            }
        } else if (m == ".half") {
            for (const auto &tok : st.operands) {
                uint16_t v = static_cast<uint16_t>(value(st, tok));
                if (emitting_)
                    emitBytes(t, &v, 2);
                else
                    skipBytes(t, 2);
            }
        } else if (m == ".byte") {
            for (const auto &tok : st.operands) {
                uint8_t v = static_cast<uint8_t>(value(st, tok));
                if (emitting_)
                    emitBytes(t, &v, 1);
                else
                    skipBytes(t, 1);
            }
        } else if (m == ".asciiz" || m == ".ascii") {
            size_t n = st.string_arg.size() + (m == ".asciiz" ? 1 : 0);
            if (emitting_)
                emitBytes(t, st.string_arg.c_str(), n);
            else
                skipBytes(t, n);
        } else if (m == ".space") {
            int64_t n = immOperand(st, 0);
            if (n < 0 || n > (64 << 20))
                err(st.line, ".space size out of range");
            skipBytes(t, static_cast<size_t>(n));
        } else if (m == ".align") {
            int64_t a = immOperand(st, 0);
            if (a < 1 || a > 4096 || (a & (a - 1)))
                err(st.line, ".align expects a power of two");
            uint32_t cur = here(t);
            uint32_t pad = (static_cast<uint32_t>(a) -
                            (cur % static_cast<uint32_t>(a))) %
                static_cast<uint32_t>(a);
            skipBytes(t, pad);
        } else if (m == ".globl" || m == ".global" || m == ".ent" ||
                   m == ".end") {
            // accepted and ignored
        } else {
            err(st.line, "unknown directive '" + m + "'");
        }
    }
};

} // namespace

AssembleResult
assemble(const std::string &source)
{
    AssembleResult r;
    try {
        Assembler a(source);
        r.program = a.run();
        r.ok = true;
    } catch (const AsmError &e) {
        r.ok = false;
        r.error = strprintf("line %d: %s", e.line, e.msg.c_str());
    }
    return r;
}

Program
assembleOrDie(const std::string &source, const std::string &what)
{
    AssembleResult r = assemble(source);
    if (!r.ok)
        fatal("%s: %s", what.c_str(), r.error.c_str());
    return std::move(r.program);
}

} // namespace cesp::assembler
