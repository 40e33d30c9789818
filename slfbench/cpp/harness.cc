/**
 * @file
 * slfbench harness: runs one benchmark workload (fig5, fig6 or screen)
 * on the campaign runner and prints its raw measurements as one JSON
 * line. run.py builds this binary, turns the measurements into the
 * benchmark's metrics and checks them.
 *
 *   slfbench --workload fig5 --wseed 42 --root-seed 1 --seconds 20 \
 *            --trace 0 --tmp DIR
 *
 * Every campaign runs on kWorkers worker threads.
 *
 * Untraced (--trace 0): set up the campaign several times (sweep
 * expansion, presets, every job's make_prog()), then run it repeatedly
 * until --seconds is used, each repetition in a fresh directory under
 * --tmp that is removed afterwards. Every set-up and every job is
 * timed between two passes of a fixed reference loop (refPass), which
 * run.py uses to scale host times to one host speed.
 *
 * Traced (--trace 1): set up once, run the campaign untraced a few
 * times, run it once more with every job executed through timed calls
 * into the module APIs (probes.hh) and the campaign's own spans on,
 * then replay each job's load/store stream through standalone
 * structures. The traced run's result JSON must equal the untraced
 * one's byte for byte.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/journal.hh"
#include "campaign/result_sink.hh"
#include "campaign/sweeps.hh"
#include "cpu/config_preset.hh"
#include "driver/func_batch.hh"
#include "obs/telemetry.hh"
#include "probes.hh"
#include "workloads/workloads.hh"

using namespace slf;
using namespace slf::campaign;
using Clock = std::chrono::steady_clock;

namespace
{

/** Campaign worker threads: half the CPUs of a 4-CPU host, so the
 *  host's own load does not queue behind the workload. */
constexpr unsigned kWorkers = 2;

/** Instruction limit of the screen workload's exact re-runs, so that
 *  phase 1 on func_batch does most of its host work. */
constexpr std::uint64_t kScreenExactInsts = 100'000;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/** CPU time of the calling thread. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "slfbench: %s\n", msg.c_str());
    std::exit(2);
}

struct Args
{
    std::string workload;
    std::uint64_t wseed = 42;
    std::uint64_t root_seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string tmp;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--wseed")
            a.wseed = std::stoull(v);
        else if (k == "--root-seed")
            a.root_seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--tmp")
            a.tmp = v;
        else
            die("unknown argument " + k);
    }
    if (a.tmp.empty())
        die("--tmp DIR is required");
    return a;
}

/**
 * One benchmark workload. The normalized-IPC pair (cmp / ref per
 * analog, averaged per class) is the figure the paper reports for it.
 */
struct WorkloadDef
{
    const char *name;
    std::uint64_t scale;
    bool screen;         ///< two-phase mixed-fidelity flow, journal on
    std::uint64_t screen_top;
    const char *ref_config;
    const char *cmp_config;
};

const WorkloadDef kWorkloads[] = {
    {"fig5", 1, false, 0, "lsq48x32", "enf"},
    {"fig6", 1, false, 0, "agg_lsq120x80", "agg_total"},
    // Larger programs (each phase-1 job stops at max_insts) and a top-2
    // exact re-run capped at kScreenExactInsts, so phase 1 on
    // func_batch does most of the host work. The screening backend
    // scores a point's three configs alike and ties go to the lower
    // index, so the re-runs are one analog's lsq48x32 and enf points:
    // both memory subsystems get an exact run.
    {"screen", 8, true, 2, "lsq48x32", "enf"},
};

/** Figure 6: the aggressive-core config quartet x the analogs, in the
 *  order bench_fig6_aggressive runs them. */
Campaign
makeFig6Campaign(const SweepOptions &o)
{
    static const char *const kConfigs[] = {
        "agg_lsq120x80", "agg_lsq256x256", "agg_lsq48x32", "agg_total"};
    Campaign c("fig6");
    for (const WorkloadInfo &info : spec2000Analogs()) {
        for (const char *name : kConfigs) {
            JobSpec spec;
            spec.config_name = name;
            spec.workload = info.name;
            spec.cfg = presetByName(name);
            const WorkloadParams wp{o.scale, o.wseed};
            const WorkloadFactory make = info.make;
            spec.make_prog = [make, wp] { return make(wp); };
            c.addJob(std::move(spec));
        }
    }
    return c;
}

using ProgMap = std::map<std::string, std::shared_ptr<const Program>>;

/** @p c with every job's program factory replaced by a copy of the
 *  program prebuilt for its workload. */
Campaign
withPrebuilt(const Campaign &c, const ProgMap &progs)
{
    Campaign out(c.name());
    for (JobSpec spec : c.jobs()) {
        const auto it = progs.find(spec.workload);
        if (it == progs.end())
            die("no prebuilt program for " + spec.workload);
        std::shared_ptr<const Program> prog = it->second;
        spec.make_prog = [prog] { return *prog; };
        out.addJob(std::move(spec));
    }
    return out;
}

struct Prepared
{
    Campaign campaign{""};
    ProgMap progs;
    double setup_s = 0;
    double build_ms = 0;   ///< time inside make_prog() calls
};

/** Sweep expansion, preset validation and every job's make_prog(). */
Prepared
prepare(const WorkloadDef &def, const SweepOptions &sopts)
{
    Prepared p;
    const auto t0 = Clock::now();
    const std::string name = def.name;
    const Campaign raw = name == "fig5"   ? makeFig5Campaign(sopts)
                         : name == "fig6" ? makeFig6Campaign(sopts)
                                          : makeScreenCampaign(sopts);
    Campaign out(raw.name());
    double build_ns = 0;
    for (JobSpec spec : raw.jobs()) {
        const auto tb = Clock::now();
        auto prog = std::make_shared<const Program>(spec.make_prog());
        build_ns +=
            std::chrono::duration<double, std::nano>(Clock::now() - tb)
                .count();
        p.progs[spec.workload] = prog;
        spec.make_prog = [prog] { return *prog; };
        out.addJob(std::move(spec));
    }
    p.campaign = std::move(out);
    p.setup_s = secondsSince(t0);
    p.build_ms = build_ns * 1e-6;
    return p;
}

/** Instrumentation state for the traced repetition. */
struct Tracer
{
    obs::SpanSink spans;
    slfbench::JobLayers layers;
    std::mutex mutex;
    double campaign_wall_s = 0;   ///< summed over Campaign::run calls
};

/**
 * One pass of the host-speed reference, in ms: a fixed loop of four
 * independent multiply/shift chains and a data-dependent branch, with
 * no memory traffic, compiled into the benchmark and so untouched by
 * changes to the simulator. Other tenants of the host slow the
 * simulator down and up again many times a second and, over minutes,
 * by up to half; the pass slows with it. Timed on the worker thread
 * right before and after each job, it tells how fast the host ran the
 * job (see README.md, "Noise").
 */
double
refPass()
{
    const auto t0 = Clock::now();
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    for (std::uint64_t k = 0; k < 100'000; ++k) {
        a = a * 0x9E3779B97F4A7C15ull + k;
        b ^= (b << 13) ^ (b >> 7);
        c = c * 0xBF58476D1CE4E5B9ull + b;
        d += (a >> 3) ^ (c << 5);
        if ((a ^ d) & 0x10)
            d += b;
        else
            c ^= a;
    }
    static std::atomic<std::uint64_t> sink{0};
    sink += a ^ b ^ c ^ d;
    return 1e3 * secondsSince(t0);
}

/** Host wall and thread CPU time of each job of an untraced campaign,
 *  summed over its attempts, and the mean reference pass around them;
 *  keyed by "config/workload". */
struct JobClock
{
    struct Times
    {
        double wall_ms = 0;
        double cpu_ms = 0;
        double ref_ms_sum = 0;
        unsigned attempts = 0;
    };
    std::map<std::string, Times> jobs;
    std::mutex mutex;
};

/**
 * Campaign::run with every job sent through the synthetic backend
 * seam to its real backend. Without @p tr the seam times the backend
 * call into @p clock (wall and thread CPU time, finer than
 * JobResult::wall_ms) between two reference passes. With @p tr it
 * runs slfbench::runTraced(), which executes the job the way its real
 * backend would with timers around each public call, and the campaign
 * records its queue/attempt spans.
 * Results carry the real backend afterwards, so the sink renders them
 * exactly as in a plain run.
 */
std::vector<JobResult>
runCampaign(const Campaign &c, CampaignOptions opts, JobClock *clock,
            Tracer *tr)
{
    if (c.jobCount() == 0)
        return c.run(opts);
    const BackendKind kind = c.jobs().front().backend;
    Campaign swapped(c.name());
    std::map<std::string, int> labels;
    for (JobSpec spec : c.jobs()) {
        if (spec.backend != kind)
            die("campaign mixes backends");
        if (labels[spec.config_name + "/" + spec.workload]++)
            die("two jobs labelled " + spec.config_name + "/" +
                spec.workload);
        spec.backend = BackendKind::Synthetic;
        swapped.addJob(std::move(spec));
    }
    ScopedSyntheticBackend seam([clock, tr, kind](const JobSpec &spec,
                                                  const CoreConfig &cfg,
                                                  unsigned attempt) {
        if (tr)
            return slfbench::runTraced(spec, cfg, kind, tr->layers,
                                       tr->mutex);
        const double r0 = refPass();
        const auto t0 = Clock::now();
        const double c0 = threadCpuSeconds();
        SimResult r = backendFor(kind).run(spec, cfg, attempt);
        const double cpu_ms = 1e3 * (threadCpuSeconds() - c0);
        const double wall_ms = 1e3 * secondsSince(t0);
        const double r1 = refPass();
        std::lock_guard<std::mutex> lock(clock->mutex);
        JobClock::Times &t =
            clock->jobs[spec.config_name + "/" + spec.workload];
        t.wall_ms += wall_ms;
        t.cpu_ms += cpu_ms;
        t.ref_ms_sum += 0.5 * (r0 + r1);
        ++t.attempts;
        return r;
    });
    if (tr)
        opts.telemetry.spans = &tr->spans;
    const auto t0 = Clock::now();
    std::vector<JobResult> results = swapped.run(opts);
    if (tr)
        tr->campaign_wall_s += secondsSince(t0);
    for (JobResult &jr : results)
        jr.backend = kind;
    return results;
}

/** Outcome checks over every job the benchmark ran. */
struct Check
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool identical = true;
    std::vector<std::string> failures;

    void
    fail(const std::string &why)
    {
        if (failures.size() < 20)
            failures.push_back(why);
    }

    void
    jobs(const std::vector<JobResult> &results)
    {
        for (const JobResult &jr : results) {
            ++attempted;
            std::string why;
            if (!jr.ok())
                why = std::string(jobStatusName(jr.status)) + ": " +
                      jr.error;
            else if (!jr.result.checker_enabled)
                why = "golden checker off";
            else if (!jr.result.checker_clean)
                why = "golden checker unclean";
            if (!why.empty()) {
                ++failed;
                fail(jr.config_name + "/" + jr.workload + ": " + why);
            }
        }
    }
};

struct RepOut
{
    double wall_s = 0;
    double cpu_s = 0;
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::vector<double> job_ms;       ///< per job, in result order
    std::vector<double> job_cpu_ms;   ///< untraced repetitions only
    std::vector<double> job_ref_ms;   ///< untraced repetitions only
    std::vector<JobResult> results;
    std::string json;
};

/** One repetition of the workload, start to written result file, in a
 *  fresh directory that is removed afterwards. */
RepOut
runRep(const WorkloadDef &def, const Prepared &prep,
       const SweepOptions &sopts, const Args &args, Tracer *tr)
{
    std::string tmpl = args.tmp + "/rep.XXXXXX";
    if (!mkdtemp(tmpl.data()))
        die("mkdtemp under " + args.tmp + " failed");
    const std::string dir = tmpl;

    CampaignOptions opts;
    opts.jobs = kWorkers;
    opts.root_seed = args.root_seed;
    opts.progress = false;
    if (def.screen)
        opts.journal_path = dir + "/journal.jsonl";

    RepOut out;
    JobClock clock, exact_clock;
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    std::vector<JobResult> results =
        runCampaign(prep.campaign, opts, &clock, tr);
    const std::size_t screened = results.size();
    ScreenInfo info;
    if (def.screen) {
        const std::vector<std::size_t> sel =
            selectForExactRerun(results, sopts);
        SweepOptions exact_opts = sopts;
        exact_opts.withOverride("max_insts",
                                std::to_string(kScreenExactInsts));
        const Campaign exact = withPrebuilt(
            makeScreenExactCampaign(exact_opts, sel), prep.progs);
        CampaignOptions eopts = opts;
        if (!opts.journal_path.empty())
            eopts.journal_path = opts.journal_path + ".exact";
        std::vector<JobResult> exact_results =
            runCampaign(exact, eopts, &exact_clock, tr);
        info.stat = sopts.screen_stat;
        info.threshold = sopts.screen_threshold;
        info.top_k = sopts.screen_top;
        info.screened = results.size();
        info.reran = exact_results.size();
        const std::size_t offset = results.size();
        for (JobResult &jr : exact_results) {
            jr.index += offset;
            results.push_back(std::move(jr));
        }
    }
    out.json = ResultSink::toJson(prep.campaign.name(), args.root_seed,
                                  results, def.screen ? &info : nullptr);
    ResultSink::writeFileAtomic(dir + "/result.json", out.json);
    out.wall_s = secondsSince(t0);
    out.cpu_s = cpuSeconds() - cpu0;
    std::filesystem::remove_all(dir);

    for (std::size_t i = 0; i < results.size(); ++i) {
        const JobResult &jr = results[i];
        out.insts += jr.result.insts;
        out.cycles += jr.result.cycles;
        if (tr) {
            out.job_ms.push_back(double(jr.wall_ms));
            continue;
        }
        const JobClock &jc = i < screened ? clock : exact_clock;
        const auto it = jc.jobs.find(jr.config_name + "/" + jr.workload);
        if (it == jc.jobs.end())
            die("no host time for job " + jr.config_name + "/" +
                jr.workload);
        out.job_ms.push_back(it->second.wall_ms);
        out.job_cpu_ms.push_back(it->second.cpu_ms);
        out.job_ref_ms.push_back(it->second.ref_ms_sum /
                                 it->second.attempts);
    }
    out.results = std::move(results);
    return out;
}

/** Class averages of cmp/ref IPC per analog; for screen, an exact
 *  re-run replaces its point's screening estimate. */
std::pair<double, double>
normIpc(const WorkloadDef &def, const std::vector<JobResult> &results)
{
    std::map<std::pair<std::string, std::string>, const SimResult *> pts;
    for (const JobResult &jr : results)
        if (jr.ok())
            pts[{jr.config_name, jr.workload}] = &jr.result;
    double sum[2] = {0, 0};
    unsigned n[2] = {0, 0};
    for (const WorkloadInfo &info : spec2000Analogs()) {
        const auto ref = pts.find({def.ref_config, info.name});
        const auto cmp = pts.find({def.cmp_config, info.name});
        if (ref == pts.end() || cmp == pts.end() || ref->second->ipc <= 0)
            continue;
        const int k = info.cls == WorkloadClass::Int ? 0 : 1;
        sum[k] += cmp->second->ipc / ref->second->ipc;
        ++n[k];
    }
    return {n[0] ? sum[0] / n[0] : 0.0, n[1] ? sum[1] / n[1] : 0.0};
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** JSON-safe copy of a diagnostic string. */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
repJson(const RepOut &r)
{
    std::ostringstream os;
    os << "{\"wall_s\":" << num(r.wall_s) << ",\"cpu_s\":" << num(r.cpu_s)
       << ",\"insts\":" << r.insts << ",\"cycles\":" << r.cycles
       << ",\"job_ms\":[";
    for (std::size_t i = 0; i < r.job_ms.size(); ++i)
        os << (i ? "," : "") << num(r.job_ms[i]);
    os << "],\"job_cpu_ms\":[";
    for (std::size_t i = 0; i < r.job_cpu_ms.size(); ++i)
        os << (i ? "," : "") << num(r.job_cpu_ms[i]);
    os << "],\"job_ref_ms\":[";
    for (std::size_t i = 0; i < r.job_ref_ms.size(); ++i)
        os << (i ? "," : "") << num(r.job_ref_ms[i]);
    os << "]}";
    return os.str();
}

/** Per-layer metrics of the traced repetition plus the standalone
 *  structure probes. */
std::map<std::string, double>
layerMetrics(const Prepared &prep,
             const RepOut &traced, Tracer &tr, const Args &args)
{
    std::map<std::string, double> m;
    const slfbench::JobLayers &L = tr.layers;

    double attempt_us = 0;
    std::vector<double> waits_ms;
    for (const obs::CampaignSpan &s : tr.spans.spans()) {
        if (s.kind == obs::SpanKind::Attempt)
            attempt_us += double(s.t1_us - s.t0_us);
        else if (s.kind == obs::SpanKind::Queue)
            waits_ms.push_back(1e-3 * double(s.t1_us - s.t0_us));
    }
    const double job_ms = 1e-3 * attempt_us;
    const double cpu_ms = 1e-6 * (L.ctor_ns + L.tick_ns);
    const double driver_ms = 1e-6 * (L.harvest_ns + L.func_batch_ns);
    m["campaign.job_ms"] = job_ms;
    m["cpu.self_ms"] = cpu_ms;
    m["driver.self_ms"] = driver_ms;
    m["campaign.other_ms"] = job_ms - cpu_ms - driver_ms;

    m["workloads.build_ms"] = prep.build_ms;
    m["cpu.ctor_ms"] = ratio(1e-6 * L.ctor_ns, double(L.timing_jobs));
    m["cpu.ns_per_cycle"] = ratio(L.tick_ns, double(L.timing_cycles));
    m["cpu.ns_per_inst"] = ratio(L.tick_ns, double(L.timing_insts));
    m["driver.timing_ns_per_inst"] =
        ratio(L.ctor_ns + L.tick_ns + L.harvest_ns, double(L.timing_insts));

    // Simulated-behaviour counts over the exact (timing) results.
    std::uint64_t insts = 0, squashed = 0, flushes = 0, replays = 0;
    std::uint64_t sfc_loads = 0, sfc_fwd = 0, mdt_insts = 0, mdt_viol = 0;
    std::uint64_t lsq_cam = 0, lsq_search = 0, attempts = 0;
    for (const JobResult &jr : traced.results) {
        attempts += jr.attempts;
        if (jr.backend != BackendKind::Timing)
            continue;
        const SimResult &r = jr.result;
        insts += r.insts;
        squashed += r.blame.totalSquashed();
        flushes += r.blame.totalFlushes();
        replays += r.replays;
        const MemSubsystem sub = presetByName(jr.config_name).subsys;
        if (sub == MemSubsystem::MdtSfc) {
            sfc_loads += r.loads_retired;
            sfc_fwd += r.sfc_forwards;
            mdt_insts += r.insts;
            mdt_viol += r.viol_true + r.viol_anti + r.viol_output;
        } else if (sub == MemSubsystem::LsqBaseline) {
            lsq_cam += r.cam_entries_examined;
            lsq_search += r.lsq_searches;
        }
    }
    m["cpu.useful_frac"] = ratio(double(insts), double(insts + squashed));
    m["cpu.flushes_per_kinst"] = ratio(1e3 * double(flushes), double(insts));
    m["cpu.replays_per_kinst"] = ratio(1e3 * double(replays), double(insts));
    m["campaign.attempts_per_job"] =
        ratio(double(attempts), double(traced.results.size()));
    m["campaign.queue_wait_ms_p50"] = median(waits_ms);
    m["campaign.worker_util"] =
        ratio(1e-6 * attempt_us, kWorkers * tr.campaign_wall_s);

    // Journal appends (fsync included) and sink rendering, replayed
    // through the public APIs with the traced run's results.
    std::string tmpl = args.tmp + "/probe.XXXXXX";
    if (!mkdtemp(tmpl.data()))
        die("mkdtemp under " + args.tmp + " failed");
    const std::string dir = tmpl;
    {
        JobJournal journal(dir + "/journal.jsonl", prep.campaign.name(),
                           args.root_seed, traced.results.size(), false);
        const auto t0 = Clock::now();
        for (const JobResult &jr : traced.results)
            journal.append(jr, jr.index);
        m["campaign.journal_append_ms"] =
            1e3 * secondsSince(t0) / double(traced.results.size());
    }
    std::vector<double> render_ms;
    for (int i = 0; i < 3; ++i) {
        const auto t0 = Clock::now();
        ResultSink::writeFileAtomic(
            dir + "/result.json",
            ResultSink::toJson(prep.campaign.name(), args.root_seed,
                               traced.results));
        render_ms.push_back(1e3 * secondsSince(t0));
    }
    m["campaign.sink_render_ms"] = median(render_ms);
    std::filesystem::remove_all(dir);

    // Standalone probes over the phase-1 job list, one program at a
    // time: FuncSim, the structures the job's config uses, and (when
    // the workload runs no func_batch job itself) runFuncBatch.
    slfbench::StructProbe sp;
    double fb_ns = L.func_batch_ns;
    std::uint64_t fb_insts = L.func_batch_insts;
    const bool probe_fb = L.func_batch_jobs == 0;
    std::map<std::string, std::vector<const JobSpec *>> by_workload;
    for (const JobSpec &spec : prep.campaign.jobs())
        by_workload[spec.workload].push_back(&spec);
    for (const auto &[name, specs] : by_workload) {
        const Program &prog = *prep.progs.at(name);
        std::uint64_t max_insts = 0;
        for (const JobSpec *spec : specs)
            max_insts = std::max(max_insts, spec->cfg.max_insts);
        const std::vector<slfbench::MemOp> ops =
            slfbench::memStream(prog, max_insts, sp);
        for (const JobSpec *spec : specs) {
            slfbench::replayStructures(ops, spec->cfg, sp);
            if (probe_fb) {
                const auto t0 = Clock::now();
                const SimResult r = runFuncBatch(spec->cfg, prog);
                fb_ns += 1e9 * secondsSince(t0);
                fb_insts += r.insts;
            }
        }
    }
    m["arch.ns_per_inst"] = ratio(sp.arch_ns, double(sp.arch_insts));
    m["driver.func_batch_ns_per_inst"] = ratio(fb_ns, double(fb_insts));
    m["core.sfc_ns_per_op"] = ratio(sp.sfc_ns, double(sp.sfc_ops));
    m["core.mdt_ns_per_op"] = ratio(sp.mdt_ns, double(sp.mdt_ops));
    m["core.fifo_ns_per_op"] = ratio(sp.fifo_ns, double(sp.fifo_ops));
    m["lsq.ns_per_op"] = ratio(sp.lsq_ns, double(sp.lsq_ops));

    m["core.sfc_fwd_frac"] = ratio(double(sfc_fwd), double(sfc_loads));
    m["core.mdt_viol_per_kinst"] =
        ratio(1e3 * double(mdt_viol), double(mdt_insts));
    m["lsq.cam_entries_per_search"] =
        ratio(double(lsq_cam), double(lsq_search));
    return m;
}

std::uint64_t
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return std::uint64_t(ru.ru_maxrss);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : kWorkloads)
        if (args.workload == d.name)
            def = &d;
    if (!def)
        die("unknown workload '" + args.workload + "' (fig5|fig6|screen)");

    SweepOptions sopts;
    sopts.withScale(def->scale).withWorkloadSeed(args.wseed);
    if (def->screen)
        sopts.withScreenTop(def->screen_top);

    Check check;
    std::vector<double> setup_s, setup_ref_ms;
    // Set-up is repeated so its median is steady; the last one is used.
    const int setup_reps = args.trace ? 1 : 31;
    Prepared prep;
    for (int i = 0; i < setup_reps; ++i) {
        // Free the previous set-up first, so that every one starts from
        // the same heap and the peak memory holds one set-up, as in a
        // single run of the workload.
        prep = Prepared{};
        const double r0 = refPass();
        prep = prepare(*def, sopts);
        setup_ref_ms.push_back(0.5 * (r0 + refPass()));
        setup_s.push_back(prep.setup_s);
    }

    // Untraced repetitions until the time budget (half of it when a
    // traced repetition follows) would be exceeded by one more.
    const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
    const std::size_t min_reps = args.trace ? 2 : 1;
    std::vector<RepOut> reps;
    // Peak memory of set-up plus one repetition, as a user running the
    // workload once sees it; heap growth over the timing repetitions
    // varies from run to run.
    std::uint64_t peak_rss_kb = 0;
    const auto m0 = Clock::now();
    do {
        RepOut r = runRep(*def, prep, sopts, args, nullptr);
        check.jobs(r.results);
        if (reps.empty()) {
            peak_rss_kb = peakRssKb();
        } else {
            if (r.json != reps.front().json) {
                check.identical = false;
                check.fail("repetition result JSON differs from the first");
            }
            r.results.clear();
            r.json.clear();
        }
        reps.push_back(std::move(r));
    } while (reps.size() < min_reps ||
             secondsSince(m0) + reps.back().wall_s <= budget);

    std::map<std::string, double> layers;
    std::string traced_json;
    if (args.trace) {
        Tracer tr;
        RepOut traced = runRep(*def, prep, sopts, args, &tr);
        check.jobs(traced.results);
        if (traced.json != reps.front().json) {
            check.identical = false;
            check.fail("traced result JSON differs from the untraced one");
        }
        layers = layerMetrics(prep, traced, tr, args);
        traced_json = repJson(traced);
    }

    const auto [norm_int, norm_fp] = normIpc(*def, reps.front().results);

    std::ostringstream os;
    os << "{\"workload\":" << quoted(def->name)
       << ",\"wseed\":" << args.wseed << ",\"root_seed\":" << args.root_seed
       << ",\"workers\":" << kWorkers
       << ",\"setup_s\":[";
    for (std::size_t i = 0; i < setup_s.size(); ++i)
        os << (i ? "," : "") << num(setup_s[i]);
    os << "],\"setup_ref_ms\":[";
    for (std::size_t i = 0; i < setup_ref_ms.size(); ++i)
        os << (i ? "," : "") << num(setup_ref_ms[i]);
    os << "],\"reps\":[";
    for (std::size_t i = 0; i < reps.size(); ++i)
        os << (i ? "," : "") << repJson(reps[i]);
    os << "]";
    if (args.trace) {
        os << ",\"traced\":" << traced_json << ",\"layers\":{";
        bool first = true;
        for (const auto &[k, v] : layers) {
            os << (first ? "" : ",") << quoted(k) << ":" << num(v);
            first = false;
        }
        os << "}";
    }
    os << ",\"norm_ipc\":{\"int\":" << num(norm_int)
       << ",\"fp\":" << num(norm_fp) << "}"
       << ",\"peak_rss_kb\":" << peak_rss_kb
       << ",\"attempted\":" << check.attempted
       << ",\"failed\":" << check.failed
       << ",\"identical\":" << (check.identical ? "true" : "false")
       << ",\"failures\":[";
    for (std::size_t i = 0; i < check.failures.size(); ++i)
        os << (i ? "," : "") << quoted(check.failures[i]);
    os << "]}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}
