/**
 * @file
 * Outside-in layer probes for the traced benchmark run.
 *
 * Everything here calls the simulator's public module APIs and times
 * the calls from outside; nothing is instrumented inside the program.
 */

#ifndef SLFBENCH_PROBES_HH_
#define SLFBENCH_PROBES_HH_

#include <cstdint>
#include <mutex>

#include "campaign/campaign.hh"
#include "cpu/core_config.hh"
#include "prog/program.hh"
#include "verify/sim_result.hh"

namespace slfbench
{

/** Host time spent inside each layer's calls during traced jobs. */
struct JobLayers
{
    double ctor_ns = 0;      ///< OooCore constructor and destructor
    double tick_ns = 0;      ///< OooCore::tick(), timed in blocks
    double harvest_ns = 0;   ///< SimResult harvest (driver glue)
    double func_batch_ns = 0;  ///< runFuncBatch
    std::uint64_t timing_jobs = 0;
    std::uint64_t timing_insts = 0;
    std::uint64_t timing_cycles = 0;
    std::uint64_t func_batch_jobs = 0;
    std::uint64_t func_batch_insts = 0;
};

/**
 * Runs one job the way its backend would, with a timer around each
 * public call: the timing path as OooCore construction, tick() blocks
 * and the harvest runWorkload() performs; the screening path as one
 * runFuncBatch() call. The SimResult must equal the untraced one; the
 * benchmark compares the rendered campaign JSON byte for byte.
 */
slf::SimResult runTraced(const slf::campaign::JobSpec &spec,
                         const slf::CoreConfig &cfg,
                         slf::campaign::BackendKind kind,
                         JobLayers &acc, std::mutex &acc_mutex);

/** Standalone per-structure costs from replaying a job's architectural
 *  load/store stream. */
struct StructProbe
{
    double arch_ns = 0;     ///< FuncSim::stepBlock
    std::uint64_t arch_insts = 0;
    double sfc_ns = 0, mdt_ns = 0, fifo_ns = 0, lsq_ns = 0;
    std::uint64_t sfc_ops = 0, mdt_ops = 0, fifo_ops = 0, lsq_ops = 0;
};

/** Architectural memory operations of one program, in program order. */
struct MemOp
{
    std::uint64_t addr = 0;
    std::uint64_t value = 0;   ///< store value, or the loaded value
    std::uint64_t pc = 0;
    std::uint64_t seq = 0;     ///< architectural instruction number
    std::uint8_t size = 0;
    bool store = false;
};

/**
 * Executes @p prog on FuncSim (stepBlock, timed into @p probe.arch_ns)
 * for at most @p max_insts instructions and returns its memory ops.
 */
std::vector<MemOp> memStream(const slf::Program &prog,
                             std::uint64_t max_insts, StructProbe &probe);

/** Replays @p ops through standalone instances of the structures that
 *  @p cfg's memory subsystem uses, sized from @p cfg. */
void replayStructures(const std::vector<MemOp> &ops,
                      const slf::CoreConfig &cfg, StructProbe &probe);

} // namespace slfbench

#endif // SLFBENCH_PROBES_HH_
