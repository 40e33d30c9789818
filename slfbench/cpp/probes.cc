#include "probes.hh"

#include <chrono>
#include <deque>
#include <memory>

#include "arch/func_sim.hh"
#include "core/mdt.hh"
#include "core/sfc.hh"
#include "core/store_fifo.hh"
#include "cpu/ooo_core.hh"
#include "driver/func_batch.hh"
#include "isa/inst.hh"
#include "lsq/lsq.hh"

namespace slfbench
{

using Clock = std::chrono::steady_clock;
using slf::campaign::BackendKind;

namespace
{

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** Cycles simulated between two clock reads: a clock read costs tens of
 *  ns and a cycle hundreds, so the timer overhead stays far below 1%. */
constexpr unsigned kTickBlock = 4096;

/**
 * The SimResult runWorkload() harvests from a finished core. Kept in
 * step with driver/runner.cc: the traced run renders its campaign JSON
 * from these results and the benchmark fails if it differs by one byte
 * from the untraced run's.
 */
slf::SimResult
harvest(slf::OooCore &core, const slf::Program &prog)
{
    slf::SimResult r;
    r.workload = prog.name();
    r.cls = prog.workloadClass();
    r.cycles = core.cycles();
    r.insts = core.instsRetired();
    r.ipc = core.ipc();

    using CS = slf::obs::CoreStat;
    r.loads_retired = core.coreStat(CS::LoadsRetired);
    r.stores_retired = core.coreStat(CS::StoresRetired);
    r.branches_retired = core.coreStat(CS::BranchesRetired);
    r.mispredicts = core.coreStat(CS::BranchMispredicts);
    r.oracle_fixes = core.coreStat(CS::OracleFixedMispredicts);
    r.replays = core.coreStat(CS::MemReplays);
    r.flushes_true = core.coreStat(CS::ViolationFlushesTrue);
    r.flushes_anti = core.coreStat(CS::ViolationFlushesAnti);
    r.flushes_output = core.coreStat(CS::ViolationFlushesOutput);
    r.spurious_violations = core.coreStat(CS::SpuriousViolations);

    core.memUnit().exportStats(r);
    r.occ = core.occupancy();
    r.cpi = core.cpiStack();
    r.blame = core.blame();

    if (const slf::GoldenChecker *checker = core.checker()) {
        r.checker_enabled = true;
        r.checker_clean = checker->clean();
        r.check_retirements = checker->retirementsChecked();
        r.check_failures = checker->failureCount();
        r.check_store_commit_failures = checker->storeCommitFailures();
        r.check_reports = checker->reports();
    }
    if (const slf::FaultInjector *fi = core.faultInjector()) {
        r.faults_sfc_mask = fi->sfcMaskFaults();
        r.faults_sfc_data = fi->sfcDataFaults();
        r.faults_mdt_evict = fi->mdtEvictFaults();
        r.faults_fifo_payload = fi->fifoPayloadFaults();
    }
    return r;
}

} // namespace

slf::SimResult
runTraced(const slf::campaign::JobSpec &spec, const slf::CoreConfig &cfg,
          BackendKind kind, JobLayers &acc, std::mutex &acc_mutex)
{
    const slf::Program prog = spec.make_prog();

    if (kind == BackendKind::FuncBatch) {
        const auto t0 = Clock::now();
        slf::SimResult r = slf::runFuncBatch(cfg, prog);
        const double ns = nsBetween(t0, Clock::now());
        std::lock_guard<std::mutex> lock(acc_mutex);
        acc.func_batch_ns += ns;
        ++acc.func_batch_jobs;
        acc.func_batch_insts += r.insts;
        return r;
    }

    const auto t0 = Clock::now();
    auto core = std::make_unique<slf::OooCore>(cfg, prog);
    const auto t1 = Clock::now();
    double tick_ns = 0;
    for (bool more = true; more;) {
        const auto tb = Clock::now();
        for (unsigned k = 0; k < kTickBlock && (more = core->tick()); ++k) {
        }
        tick_ns += nsBetween(tb, Clock::now());
    }
    const auto t2 = Clock::now();
    slf::SimResult r = harvest(*core, prog);
    const auto t3 = Clock::now();
    core.reset();
    const auto t4 = Clock::now();

    std::lock_guard<std::mutex> lock(acc_mutex);
    acc.ctor_ns += nsBetween(t0, t1) + nsBetween(t3, t4);
    acc.tick_ns += tick_ns;
    acc.harvest_ns += nsBetween(t2, t3);
    ++acc.timing_jobs;
    acc.timing_insts += r.insts;
    acc.timing_cycles += r.cycles;
    return r;
}

std::vector<MemOp>
memStream(const slf::Program &prog, std::uint64_t max_insts,
          StructProbe &probe)
{
    slf::FuncSim fs(prog);
    std::vector<slf::RetireRecord> buf(4096);
    std::vector<MemOp> ops;
    std::uint64_t seq = 0;
    double ns = 0;
    while (seq < max_insts) {
        const std::size_t want =
            std::min<std::uint64_t>(buf.size(), max_insts - seq);
        const auto t0 = Clock::now();
        const std::size_t n = fs.stepBlock(buf.data(), want);
        ns += nsBetween(t0, Clock::now());
        if (n == 0)
            break;
        for (std::size_t i = 0; i < n; ++i) {
            const slf::RetireRecord &rec = buf[i];
            ++seq;
            if (!rec.is_mem)
                continue;
            MemOp op;
            op.addr = rec.addr;
            op.size = std::uint8_t(rec.size);
            op.store = slf::isStore(rec.op);
            op.value = op.store ? rec.store_value : rec.result;
            op.pc = rec.pc;
            op.seq = seq;
            ops.push_back(op);
        }
    }
    probe.arch_ns += ns;
    probe.arch_insts += seq;
    return ops;
}

namespace
{

/**
 * In-order replay window: an op retires once @p depth younger memory
 * ops have executed, or earlier when a structure reports a capacity
 * conflict. Architectural order has no ordering violations, so what the
 * replay measures is each structure's lookup and bookkeeping cost.
 */
template <typename Execute, typename Retire>
void
replayInOrder(const std::vector<MemOp> &ops, std::size_t depth,
              Execute execute, Retire retire)
{
    std::deque<const MemOp *> inflight;
    for (const MemOp &op : ops) {
        while (!execute(op) && !inflight.empty()) {
            retire(*inflight.front(), inflight.size() > 1
                                          ? inflight[1]->seq
                                          : op.seq);
            inflight.pop_front();
        }
        inflight.push_back(&op);
        if (inflight.size() > depth) {
            retire(*inflight.front(), inflight[1]->seq);
            inflight.pop_front();
        }
    }
    while (!inflight.empty()) {
        retire(*inflight.front(), inflight.front()->seq + 1);
        inflight.pop_front();
    }
}

} // namespace

void
replayStructures(const std::vector<MemOp> &ops, const slf::CoreConfig &cfg,
                 StructProbe &probe)
{
    const std::size_t depth = cfg.rob_entries;

    if (cfg.subsys == slf::MemSubsystem::MdtSfc) {
        {
            slf::Sfc sfc(cfg.sfc);
            const auto t0 = Clock::now();
            replayInOrder(
                ops, depth,
                [&](const MemOp &op) {
                    if (op.store)
                        return sfc.storeWrite(op.addr, op.size, op.value,
                                              op.seq) ==
                               slf::SfcStoreResult::Ok;
                    sfc.loadRead(op.addr, op.size);
                    return true;
                },
                [&](const MemOp &op, std::uint64_t oldest) {
                    if (op.store)
                        sfc.retireStore(op.addr, op.size, op.seq);
                    sfc.setOldestInflight(oldest);
                });
            probe.sfc_ns += nsBetween(t0, Clock::now());
            probe.sfc_ops += ops.size();
        }
        {
            slf::Mdt mdt(cfg.mdt);
            const auto t0 = Clock::now();
            replayInOrder(
                ops, depth,
                [&](const MemOp &op) {
                    const slf::MdtAccess a =
                        op.store ? mdt.accessStore(op.addr, op.size, op.seq,
                                                   op.pc)
                                 : mdt.accessLoad(op.addr, op.size, op.seq,
                                                  op.pc);
                    return a.status != slf::MdtAccess::Status::Conflict;
                },
                [&](const MemOp &op, std::uint64_t oldest) {
                    if (op.store)
                        mdt.retireStore(op.addr, op.size, op.seq);
                    else
                        mdt.retireLoad(op.addr, op.size, op.seq);
                    mdt.setOldestInflight(oldest);
                });
            probe.mdt_ns += nsBetween(t0, Clock::now());
            probe.mdt_ops += ops.size();
        }
        {
            slf::StoreFifo fifo(cfg.rob_entries);
            std::uint64_t stores = 0;
            const auto t0 = Clock::now();
            for (const MemOp &op : ops) {
                if (!op.store)
                    continue;
                if (fifo.full())
                    fifo.retireHead(fifo.head().seq);
                fifo.allocate(op.seq);
                fifo.fill(op.seq, op.addr, op.size, op.value);
                ++stores;
            }
            while (!fifo.empty())
                fifo.retireHead(fifo.head().seq);
            probe.fifo_ns += nsBetween(t0, Clock::now());
            probe.fifo_ops += stores;
        }
    } else if (cfg.subsys == slf::MemSubsystem::LsqBaseline) {
        slf::Lsq lsq(cfg.lsq, [](slf::Addr) { return std::uint8_t(0); });
        const auto t0 = Clock::now();
        replayInOrder(
            ops, depth,
            [&](const MemOp &op) {
                if (op.store) {
                    if (!lsq.dispatchStore(op.seq, op.pc))
                        return false;
                    lsq.executeStore(op.seq, op.addr, op.size, op.value);
                } else {
                    if (!lsq.dispatchLoad(op.seq, op.pc))
                        return false;
                    lsq.executeLoad(op.seq, op.addr, op.size);
                    lsq.loadCompleted(op.seq, op.value);
                }
                return true;
            },
            [&](const MemOp &op, std::uint64_t) {
                if (op.store)
                    lsq.retireStore(op.seq);
                else
                    lsq.retireLoad(op.seq);
            });
        probe.lsq_ns += nsBetween(t0, Clock::now());
        probe.lsq_ops += ops.size();
    }
}

} // namespace slfbench
