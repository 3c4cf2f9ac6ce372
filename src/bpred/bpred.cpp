/**
 * @file
 * Branch predictor implementations.
 */

#include "bpred/bpred.hpp"

#include "common/logging.hpp"

namespace cesp::bpred {

namespace {

bool
isPow2(uint32_t v)
{
    return v && !(v & (v - 1));
}

} // namespace

Gshare::Gshare(const uarch::BpredConfig &cfg)
{
    if (!isPow2(static_cast<uint32_t>(cfg.table_entries)))
        fatal("gshare: table entries %d not a power of two",
              cfg.table_entries);
    if (cfg.history_bits < 0 || cfg.history_bits > 30)
        fatal("gshare: history bits %d out of range", cfg.history_bits);
    if (cfg.counter_bits < 1 || cfg.counter_bits > 7)
        fatal("gshare: counter bits %d out of range", cfg.counter_bits);
    index_mask_ = static_cast<uint32_t>(cfg.table_entries) - 1;
    history_mask_ = (1u << cfg.history_bits) - 1;
    counter_max_ =
        static_cast<uint8_t>((1u << cfg.counter_bits) - 1);
    // Weakly not-taken start.
    counter_init_ = static_cast<uint8_t>(counter_max_ / 2);
    counters_.assign(static_cast<size_t>(cfg.table_entries),
                     counter_init_);
}

uint32_t
Gshare::index(uint32_t pc) const
{
    return ((pc >> 2) ^ history_) & index_mask_;
}

bool
Gshare::predict(uint32_t pc)
{
    return counters_[index(pc)] > counter_max_ / 2;
}

void
Gshare::update(uint32_t pc, bool taken)
{
    uint8_t &c = counters_[index(pc)];
    if (taken && c < counter_max_)
        ++c;
    else if (!taken && c > 0)
        --c;
    history_ = ((history_ << 1) | (taken ? 1u : 0u)) & history_mask_;
}

Bimodal::Bimodal(int table_entries)
{
    if (!isPow2(static_cast<uint32_t>(table_entries)))
        fatal("bimodal: table entries %d not a power of two",
              table_entries);
    index_mask_ = static_cast<uint32_t>(table_entries) - 1;
    counters_.assign(static_cast<size_t>(table_entries), 1);
}

bool
Bimodal::predict(uint32_t pc)
{
    return counters_[(pc >> 2) & index_mask_] > 1;
}

void
Bimodal::update(uint32_t pc, bool taken)
{
    uint8_t &c = counters_[(pc >> 2) & index_mask_];
    if (taken && c < 3)
        ++c;
    else if (!taken && c > 0)
        --c;
}

std::unique_ptr<BranchPredictor>
makePredictor(const uarch::BpredConfig &cfg)
{
    switch (cfg.kind) {
      case uarch::BpredKind::Gshare:
        return std::make_unique<Gshare>(cfg);
      case uarch::BpredKind::Bimodal:
        return std::make_unique<Bimodal>(cfg.table_entries);
      case uarch::BpredKind::AlwaysTaken:
        return std::make_unique<StaticTaken>(true);
      case uarch::BpredKind::NeverTaken:
        return std::make_unique<StaticTaken>(false);
    }
    fatal("unknown branch predictor kind %d",
          static_cast<int>(cfg.kind));
}

} // namespace cesp::bpred
