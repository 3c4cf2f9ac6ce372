/**
 * @file
 * Trace utilities.
 */

#include "trace/trace.hpp"

#include "common/logging.hpp"

namespace cesp::trace {

TraceView
TraceView::slice(size_t offset, size_t n) const
{
    if (offset > count || n > count - offset)
        fatal("TraceView::slice: window [%zu, %zu) outside a %zu-"
              "record trace", offset, offset + n, count);
    return {records + offset, n};
}

TraceMix
computeMix(TraceView trace)
{
    TraceMix m;
    m.total = trace.count;
    for (size_t i = 0; i < trace.count; ++i) {
        const TraceOp &op = trace[i];
        switch (op.cls) {
          case isa::OpClass::Load:
            ++m.loads;
            break;
          case isa::OpClass::Store:
            ++m.stores;
            break;
          case isa::OpClass::BranchCond:
            ++m.cond_branches;
            break;
          case isa::OpClass::BranchUncond:
          case isa::OpClass::BranchInd:
            ++m.uncond;
            break;
          case isa::OpClass::IntAlu:
            ++m.int_alu;
            break;
          default:
            ++m.other;
            break;
        }
    }
    return m;
}

} // namespace cesp::trace
