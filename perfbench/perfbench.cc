/**
 * @file
 * hdpat_perfbench: timed and traced repetitions of one benchmark
 * workload, in one process on one simulation thread.
 *
 * A repetition replays runOnce()'s public calls for every run of the
 * workload -- System construction, WorkloadStreamCache::get,
 * System::loadWorkload, System::run, writeMetricsJson to an in-memory
 * stream -- and then destroys the System. The stream cache is cleared
 * before each repetition (outside the timed region), so every
 * repetition pays what a fresh figure process pays.
 *
 * Timed mode runs one checked, untimed warm-up repetition, then
 * repetitions until --seconds have passed, and reports medians of
 * thread CPU time scaled by a fixed speed reference (SpeedReference).
 * Traced mode (--trace 1) spends half its time on untraced
 * repetitions and half on traced ones: the host profiler is on, heap
 * allocations are counted by the operator new replacement below, and
 * every call is recorded as a span that is written to --spans at exit.
 *
 * The last stdout line is one JSON object (attempted, failed,
 * failures, metrics, counts, digest, provenance); perfbench/run.py
 * turns it into the benchmark's result line.
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <unordered_map>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "driver/runner.hh"
#include "driver/system.hh"
#include "obs/exporters.hh"
#include "obs/json_writer.hh"
#include "workloads/stream_cache.hh"
#include "workloads/suite.hh"

#ifndef HDPAT_PERFBENCH_BUILD_TYPE
#define HDPAT_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HDPAT_PERFBENCH_COMPILER
#define HDPAT_PERFBENCH_COMPILER "unknown"
#endif

// ---- Heap-allocation counter (traced repetitions only) ----------------

namespace
{
std::atomic<bool> gCountAllocs{false};
std::atomic<std::uint64_t> gAllocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    if (gCountAllocs.load(std::memory_order_relaxed))
        gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// Out of line, so the compiler never pairs an inlined free() with a
// call to the operator new above.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace hdpat;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * The simulation thread's CPU clock, in ns. Every reported host time
 * is read from it: it counts user and kernel time (page faults
 * included) but not the time the thread sits preempted by other
 * processes or stolen by the hypervisor, which on a shared VM swings
 * elapsed time by up to 2x between repetitions.
 */
std::int64_t
cpuNowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

/**
 * Machine-speed reference: a fixed batch of random finds in a fixed
 * 2^19-entry std::unordered_map, timed on the thread CPU clock right
 * before and right after every repetition. On the shared VM the
 * benchmark was built on, the simulator's CPU time per repetition
 * drifted by up to 1.7x over tens of seconds while an ALU loop did not
 * move: the slow phases are memory-system contention from outside the
 * VM. This kernel is memory-bound like the simulator and slows with
 * it; dividing by it cut the run-to-run spread of wafer_spmv from 15 %
 * to 3 % (8 runs). The map, the keys and the batch never change, so a
 * change to the simulator moves the ratio and a change of machine
 * state does not.
 */
class SpeedReference
{
  public:
    SpeedReference()
    {
        map_.reserve(kEntries);
        std::uint64_t x = 1;
        for (std::uint64_t i = 0; i < kEntries; ++i)
            map_.emplace(next(x) >> 40, i);
    }

    /** CPU seconds of one batch of finds. */
    double measure()
    {
        std::uint64_t x = 7, acc = 0;
        const std::int64_t t0 = cpuNowNs();
        for (std::uint64_t i = 0; i < kFinds; ++i) {
            const auto it = map_.find(next(x) >> 40);
            if (it != map_.end())
                acc += it->second;
        }
        const std::int64_t t1 = cpuNowNs();
        sink_ = sink_ + acc;
        return 1e-9 * static_cast<double>(t1 - t0);
    }

  private:
    static constexpr std::uint64_t kEntries = 1u << 19;
    static constexpr std::uint64_t kFinds = 400'000;

    static std::uint64_t next(std::uint64_t &x)
    {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return x;
    }

    std::unordered_map<std::uint64_t, std::uint64_t> map_;
    volatile std::uint64_t sink_ = 0;
};

/**
 * SpeedReference::measure() on the machine the benchmark was built on
 * (4-vCPU Xeon VM, fast phase). Reported times are CPU seconds scaled
 * by kReferenceNominalS / (the reference's time around that
 * repetition): seconds on that machine in that phase.
 */
constexpr double kReferenceNominalS = 0.025;

/** The paper's Fig 14 geomean HDPAT speedup over the central IOMMU. */
constexpr double kPaperFig14Speedup = 1.57;

// ---- Workload definitions ---------------------------------------------

/** Every ObsOptions field, pinned; observers only where asked. */
ObsOptions
pinnedObs(bool observed)
{
    ObsOptions obs;
    obs.metricsJsonPath = "";
    obs.traceOutPath = "";
    obs.traceSampleN = 64;
    obs.traceCapacity = 1u << 20;
    obs.heartbeatInterval = 0;
    obs.audit = observed;
    obs.watchdogInterval = 0;
    obs.spatialWindow = 0;
    obs.spatialCsvPath = "";
    obs.profile = false;
    obs.latency = observed;
    obs.latencySampleN = 1;
    obs.latencyTopK = 8;
    obs.latencyReportPath = "";
    obs.nocFuse = true;
    obs.domains = 1;
    obs.backpressure = observed;
    obs.backpressureWindow = 0;
    obs.backpressureReportPath = "";
    return obs;
}

/** Every TenancySpec field, pinned. */
TenancySpec
pinnedTenancy(std::uint32_t asids, std::uint64_t switch_rate,
              std::uint64_t churn_rate, std::uint64_t seed)
{
    TenancySpec t;
    t.asidCount = asids;
    t.switchRatePerMTicks = switch_rate;
    t.churnRatePerMTicks = churn_rate;
    t.seed = seed;
    return t;
}

/** Every RunSpec field, pinned. */
RunSpec
pinnedSpec(const SystemConfig &cfg, const TranslationPolicy &pol,
           const std::string &workload, std::size_t ops,
           std::uint64_t seed, const ObsOptions &obs,
           const TenancySpec &tenancy)
{
    RunSpec s;
    s.config = cfg;
    s.policy = pol;
    s.workload = workload;
    s.opsPerGpm = ops;
    s.seed = seed;
    s.footprintScale = 1.0;
    s.captureIommuTrace = false;
    s.obs = obs;
    s.tenancy = tenancy;
    return s;
}

struct BenchWorkload
{
    std::string name;
    std::size_t opsPerGpm = 0;
    /** The runs one repetition makes, in order. */
    std::vector<RunSpec> runs;
    /** fig14_sweep: runs are policy-major, baseline first, hdpat last. */
    bool fig14 = false;
};

/** 14 Table II workloads x {baseline, trans-fw, valkyrie, barre, hdpat}. */
const std::vector<TranslationPolicy> &
fig14Policies()
{
    static const std::vector<TranslationPolicy> policies = {
        TranslationPolicy::baseline(), TranslationPolicy::transFw(),
        TranslationPolicy::valkyrie(), TranslationPolicy::barre(),
        TranslationPolicy::hdpat()};
    return policies;
}

bool
makeWorkloadDef(const std::string &name, std::uint64_t seed,
                BenchWorkload &out)
{
    out.name = name;
    const TenancySpec single = pinnedTenancy(1, 0, 0, 0x7e4a47);
    if (name == "wafer_spmv" || name == "observed") {
        out.opsPerGpm = 2000;
        out.runs.push_back(pinnedSpec(
            SystemConfig::mi100Wafer7x12(), TranslationPolicy::hdpat(),
            "SPMV", out.opsPerGpm, seed, pinnedObs(name == "observed"),
            single));
        return true;
    }
    if (name == "fig14_sweep") {
        out.opsPerGpm = 200;
        out.fig14 = true;
        // Same order as fig14_overall: policy-major, so the stream
        // cache builds each workload once and replays it four times.
        for (const TranslationPolicy &pol : fig14Policies()) {
            for (const std::string &wl : workloadAbbrs()) {
                out.runs.push_back(pinnedSpec(
                    SystemConfig::mi100(), pol, wl, out.opsPerGpm, seed,
                    pinnedObs(false), single));
            }
        }
        return true;
    }
    if (name == "tenant_churn") {
        out.opsPerGpm = 3000;
        out.runs.push_back(pinnedSpec(
            SystemConfig::mi100(), TranslationPolicy::hdpat(), "PR",
            out.opsPerGpm, seed, pinnedObs(false),
            pinnedTenancy(4, 1000, 600, seed + 0x7e4a47)));
        return true;
    }
    return false;
}

// ---- Spans ------------------------------------------------------------

enum class SpanKind : std::uint8_t
{
    Repetition,
    Run,
    Build,
    Gen,
    Load,
    Sim,
    Export,
    Teardown,
};

const char *
spanName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::Repetition: return "repetition";
    case SpanKind::Run: return "run";
    case SpanKind::Build: return "driver.build";
    case SpanKind::Gen: return "workloads.gen";
    case SpanKind::Load: return "driver.load";
    case SpanKind::Sim: return "driver.run";
    case SpanKind::Export: return "obs.export";
    case SpanKind::Teardown: return "driver.teardown";
    }
    return "?";
}

struct Span
{
    SpanKind kind = SpanKind::Run;
    std::uint32_t rep = 0;
    std::int32_t parent = -1;
    /** Elapsed-time interval, from the benchmark's start. */
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Thread CPU time inside the span. */
    std::int64_t cpuNs = 0;
    std::uint64_t allocs = 0;
};

/** Spans of traced repetitions, kept in memory until exit. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin)
    {
        spans_.reserve(1u << 16);
    }

    /** Opens a span; its allocation count starts after the push. */
    std::int32_t open(SpanKind kind, std::uint32_t rep,
                      std::int32_t parent)
    {
        Span &s = spans_.emplace_back();
        s.kind = kind;
        s.rep = rep;
        s.parent = parent;
        s.allocs = gAllocs.load(std::memory_order_relaxed);
        s.startNs = sinceOrigin();
        s.cpuNs = cpuNowNs();
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    void close(std::int32_t id)
    {
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.cpuNs = cpuNowNs() - s.cpuNs;
        s.endNs = sinceOrigin();
        s.allocs = gAllocs.load(std::memory_order_relaxed) - s.allocs;
    }

    const std::vector<Span> &spans() const { return spans_; }

    void write(std::ostream &os) const
    {
        JsonWriter w(os);
        w.beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginObject();
            w.field("id", static_cast<std::uint64_t>(i));
            w.field("name", spanName(s.kind));
            w.field("rep", static_cast<std::uint64_t>(s.rep));
            w.field("parent", static_cast<std::int64_t>(s.parent));
            w.field("start_ns", s.startNs);
            w.field("end_ns", s.endNs);
            w.field("cpu_ns", s.cpuNs);
            w.field("allocs", s.allocs);
            w.endObject();
        }
        w.endArray();
        os << '\n';
    }

  private:
    std::int64_t sinceOrigin() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

// ---- One repetition ---------------------------------------------------

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** @p num / @p den, or 0 when nothing was counted in the base. */
double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

void
fnv(std::uint64_t &h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
}

/** Everything one repetition measured and checked. */
struct Repetition
{
    bool traced = false;
    /** Elapsed seconds of the whole repetition. */
    double elapsed = 0;
    /** Mean SpeedReference time before and after the repetition. */
    double refCpu = 0;
    // Host CPU seconds, summed over the repetition's runs.
    double cpu = 0, build = 0, gen = 0, load = 0, sim = 0, exportS = 0,
           teardown = 0;
    // Simulated counts, summed over runs (maxima for high water).
    std::uint64_t opsRetired = 0, events = 0, ticks = 0, highWater = 0;
    std::uint64_t allocsSetup = 0, allocsRun = 0;
    /** Ticks plus every registry counter of every run. */
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::vector<Tick> runTicks;
    std::map<std::string, std::uint64_t> counters;
    ProfileSnapshot profile;
    std::vector<std::string> failures;
    double spanCoverage = 0;

    double setup() const { return build + gen + load; }

    /** @p cpu_s rescaled to the reference machine speed. */
    double scaled(double cpu_s) const
    {
        return cpu_s * kReferenceNominalS / refCpu;
    }
};

class Bench
{
  public:
    Bench(const BenchWorkload &wl, Clock::time_point origin)
        : wl_(wl), spans_(origin)
    {
    }

    /**
     * Run every spec once. @p traced turns on the profiler, the
     * allocation counter and span recording; @p keep_counters sums
     * every registry counter by name (the warm-up repetition). The
     * speed reference is timed around the repetition, outside it.
     */
    Repetition run(std::uint32_t rep_id, bool traced, bool keep_counters)
    {
        WorkloadStreamCache::shared().clearForTest();
        Repetition r;
        r.traced = traced;
        const double ref_before = refAfterLast_ > 0 ? refAfterLast_
                                                    : speed_.measure();
        gCountAllocs.store(traced, std::memory_order_relaxed);

        SpanLog *log = traced ? &spans_ : nullptr;
        const std::int32_t rep_span =
            log ? log->open(SpanKind::Repetition, rep_id, -1) : -1;
        const Clock::time_point rep_start = Clock::now();
        const std::int64_t cpu_start = cpuNowNs();
        for (const RunSpec &spec : wl_.runs)
            runOne(spec, rep_id, rep_span, log, keep_counters, r);
        r.cpu = 1e-9 * static_cast<double>(cpuNowNs() - cpu_start);
        r.elapsed = seconds(Clock::now() - rep_start);
        if (log)
            log->close(rep_span);
        gCountAllocs.store(false, std::memory_order_relaxed);
        refAfterLast_ = speed_.measure();
        r.refCpu = 0.5 * (ref_before + refAfterLast_);
        r.spanCoverage =
            ratio(r.setup() + r.sim + r.exportS + r.teardown, r.cpu);
        return r;
    }

    const SpanLog &spans() const { return spans_; }

  private:
    /** Times @p fn as one span; returns its host CPU seconds. */
    template <typename Fn>
    double timed(SpanLog *log, SpanKind kind, std::uint32_t rep,
                 std::int32_t parent, std::uint64_t *allocs, Fn &&fn)
    {
        const std::int32_t id = log ? log->open(kind, rep, parent) : -1;
        const std::int64_t t0 = cpuNowNs();
        fn();
        const double s = 1e-9 * static_cast<double>(cpuNowNs() - t0);
        if (log) {
            log->close(id);
            if (allocs)
                *allocs += log->spans()[static_cast<std::size_t>(id)]
                               .allocs;
        }
        return s;
    }

    void runOne(const RunSpec &spec, std::uint32_t rep,
                std::int32_t rep_span, SpanLog *log, bool keep_counters,
                Repetition &r)
    {
        const bool profile = r.traced;
        const std::int32_t run_span =
            log ? log->open(SpanKind::Run, rep, rep_span) : -1;

        std::unique_ptr<System> system;
        std::unique_ptr<hdpat::Workload> workload;
        r.build += timed(log, SpanKind::Build, rep, run_span,
                         &r.allocsSetup, [&] {
            system = std::make_unique<System>(spec.config, spec.policy);
            system->setCaptureIommuTrace(spec.captureIommuTrace);
            system->setNocFusion(spec.obs.nocFuse);
            system->setDomains(spec.obs.domains);
            if (spec.tenancy.enabled())
                system->enableTenancy(spec.tenancy);
            if (spec.obs.latencyEnabled())
                system->enableLatency(spec.obs.latencySampleN,
                                      spec.obs.latencyTopK);
            if (spec.obs.audit)
                system->enableAudit();
            if (spec.obs.backpressureEnabled())
                system->enableBackpressure(static_cast<Tick>(
                    spec.obs.backpressureWindow));
            if (profile)
                system->enableProfiler();
            workload = makeWorkload(spec.workload, spec.footprintScale);
        });

        std::shared_ptr<const StreamTable> streams;
        r.gen += timed(log, SpanKind::Gen, rep, run_span, &r.allocsSetup,
                       [&] {
            const ProfScope prof(system->profiler(),
                                 ProfSection::WorkloadGen);
            streams = WorkloadStreamCache::shared().get(StreamKey{
                spec.workload, spec.footprintScale, spec.opsPerGpm,
                spec.seed, system->numGpms(), spec.config.pageShift,
                spec.tenancy.asidCount});
        });

        r.load += timed(log, SpanKind::Load, rep, run_span,
                        &r.allocsSetup, [&] {
            system->loadWorkload(*workload, spec.opsPerGpm, spec.seed,
                                 std::move(streams));
        });

        RunResult result;
        r.sim += timed(log, SpanKind::Sim, rep, run_span, &r.allocsRun,
                       [&] { result = system->run(); });

        std::ostringstream dump;
        r.exportS += timed(log, SpanKind::Export, rep, run_span, nullptr,
                           [&] {
            ProfileSnapshot prof_snap;
            if (system->profiler())
                prof_snap = system->profiler()->snapshot();
            const ProfScope prof(system->profiler(), ProfSection::Export);
            RunMetadata meta;
            meta.workload = result.workload;
            meta.policy = result.policy;
            meta.config = result.config;
            meta.seed = spec.seed;
            meta.totalTicks = result.totalTicks;
            writeMetricsJson(
                dump, system->metrics(), meta, system->spatial(),
                prof_snap.empty() ? nullptr : &prof_snap,
                system->latency() ? &result.latency : nullptr,
                system->backpressure() ? &result.backpressure : nullptr);
        });

        check(spec, *system, result, dump, keep_counters, r);

        r.teardown += timed(log, SpanKind::Teardown, rep, run_span,
                            nullptr, [&] {
            workload.reset();
            system.reset();
        });
        if (log)
            log->close(run_span);
    }

    /** Correctness checks and counts of one finished run. */
    void check(const RunSpec &spec, System &system,
               const RunResult &result, const std::ostringstream &dump,
               bool keep_counters, Repetition &r)
    {
        const MetricRegistry &reg = system.metrics();
        const std::uint64_t issued = reg.counterValue("gpm.ops_issued");
        const std::uint64_t expected =
            static_cast<std::uint64_t>(spec.opsPerGpm) * system.numGpms();
        const std::string tag = spec.workload + "/" + spec.policy.name;
        if (issued != expected || result.opsTotal != issued) {
            r.failures.push_back(tag + ": " + std::to_string(expected) +
                                 " ops expected, " +
                                 std::to_string(issued) + " issued, " +
                                 std::to_string(result.opsTotal) +
                                 " retired");
        }
        if (spec.obs.audit &&
            (result.auditPfnChecks == 0 ||
             result.auditIssued != result.auditRetired)) {
            r.failures.push_back(
                tag + ": auditor checked " +
                std::to_string(result.auditPfnChecks) + " PPNs, " +
                std::to_string(result.auditIssued) + " issued vs " +
                std::to_string(result.auditRetired) + " retired");
        }
        if (dump.view().empty())
            r.failures.push_back(tag + ": empty metrics export");

        const Engine &engine = system.engine();
        r.opsRetired += result.opsTotal;
        r.events += engine.executedEvents();
        r.ticks += result.totalTicks;
        r.highWater = std::max<std::uint64_t>(
            r.highWater, engine.pendingEventsHighWater());
        r.runTicks.push_back(result.totalTicks);
        if (const Profiler *prof = system.profiler())
            r.profile.merge(prof->snapshot());

        fnv(r.digest, &result.totalTicks, sizeof(result.totalTicks));
        reg.forEach([&](const std::string &name,
                        const MetricRegistry::Value &value) {
            const auto *fn = std::get_if<MetricRegistry::CounterFn>(&value);
            if (!fn)
                return;
            const std::uint64_t v = (*fn)();
            fnv(r.digest, name.data(), name.size());
            fnv(r.digest, &v, sizeof(v));
            if (keep_counters)
                r.counters[name] += v;
        });
    }

    const BenchWorkload &wl_;
    SpanLog spans_;
    SpeedReference speed_;
    double refAfterLast_ = 0;
};

// ---- Statistics and output --------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename Fn>
double
medianOf(const std::vector<Repetition> &reps, Fn &&fn)
{
    std::vector<double> v;
    for (const Repetition &r : reps)
        v.push_back(fn(r));
    return median(std::move(v));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string spansPath;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_workload = false, have_seed = false, have_seconds = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *v = argv[i + 1];
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v, nullptr, 10);
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::atof(v);
            have_seconds = a.seconds > 0;
        } else if (flag == "--trace") {
            a.trace = std::string(v) == "1";
        } else if (flag == "--spans") {
            a.spansPath = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

/** Names of HDPAT_* variables in the environment. */
std::vector<std::string>
hdpatEnv()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "HDPAT_", 6) == 0) {
            const char *eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq ? eq - *e : std::strlen(*e));
        }
    }
    return names;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: hdpat_perfbench --workload NAME --seed N "
                     "--seconds S [--trace 0|1] [--spans FILE]\n";
        return 2;
    }
    if (const auto env = hdpatEnv(); !env.empty()) {
        std::cerr << "hdpat_perfbench: refusing to run with HDPAT_* "
                     "variables set:";
        for (const std::string &n : env)
            std::cerr << ' ' << n;
        std::cerr << '\n';
        return 2;
    }
#ifndef NDEBUG
    std::cerr << "hdpat_perfbench: refusing to run an assert-enabled "
                 "build\n";
    return 2;
#endif
    if (std::string(HDPAT_PERFBENCH_BUILD_TYPE) != "Release") {
        std::cerr << "hdpat_perfbench: refusing to run a "
                  << HDPAT_PERFBENCH_BUILD_TYPE << " build (need Release)\n";
        return 2;
    }
    BenchWorkload wl;
    if (!makeWorkloadDef(args.workload, args.seed, wl)) {
        std::cerr << "hdpat_perfbench: unknown workload '" << args.workload
                  << "' (wafer_spmv, fig14_sweep, tenant_churn, "
                     "observed)\n";
        return 2;
    }
    for (const RunSpec &spec : wl.runs) {
        if (const auto errors = validationErrors(spec); !errors.empty()) {
            std::cerr << "hdpat_perfbench: invalid spec: " << errors[0]
                      << '\n';
            return 2;
        }
    }

    const Clock::time_point origin = Clock::now();
    Bench bench(wl, origin);
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;

    // Warm-up: checked, not timed; its digest and counters are the
    // reference every later repetition must reproduce.
    const Repetition warm = bench.run(0, false, true);
    auto account = [&](const Repetition &r, std::uint32_t id) {
        ++attempted;
        std::vector<std::string> why = r.failures;
        if (r.digest != warm.digest)
            why.push_back("simulated-result digest differs from the "
                          "warm-up repetition");
        if (!why.empty()) {
            ++failed;
            for (const std::string &w : why)
                failures.push_back("rep " + std::to_string(id) + ": " + w);
        }
        std::cout << "rep " << id << (r.traced ? " traced " : " timed ")
                  << (why.empty() ? "ok" : "FAIL") << " cpu_s " << r.cpu
                  << " ref_cpu_s " << r.refCpu << " elapsed_s "
                  << r.elapsed << '\n'
                  << std::flush;
    };
    account(warm, 0);

    // Timed repetitions fill --seconds (half of it in traced mode); the
    // traced ones fill the other half.
    const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
    constexpr std::size_t kMinReps = 5;
    std::vector<Repetition> timed, traced;
    std::uint32_t next_id = 1;
    const Clock::time_point timed_start = Clock::now();
    while (timed.size() < kMinReps ||
           seconds(Clock::now() - timed_start) < untraced_budget) {
        timed.push_back(bench.run(next_id, false, false));
        account(timed.back(), next_id++);
    }
    if (args.trace) {
        const Clock::time_point traced_start = Clock::now();
        while (traced.size() < kMinReps ||
               seconds(Clock::now() - traced_start) < args.seconds / 2) {
            traced.push_back(bench.run(next_id, true, false));
            account(traced.back(), next_id++);
        }
        // Counts measured only under tracing must repeat exactly too.
        for (const Repetition &r : traced) {
            if (r.allocsSetup != traced[0].allocsSetup ||
                r.allocsRun != traced[0].allocsRun) {
                ++failed;
                failures.push_back("heap-allocation count moved between "
                                   "traced repetitions");
                break;
            }
        }
    }

    // ---- Metrics --------------------------------------------------------
    std::map<std::string, double> metrics;
    metrics["rep_s"] =
        medianOf(timed, [](auto &r) { return r.scaled(r.cpu); });
    metrics["setup_s"] =
        medianOf(timed, [](auto &r) { return r.scaled(r.setup()); });
    metrics["sim_ops_per_s"] = medianOf(timed, [](auto &r) {
        return ratio(static_cast<double>(r.opsRetired), r.scaled(r.sim));
    });
    metrics["peak_rss_mb"] = peakRssMb();
    // Unscaled, for reading the machine's state next to the metrics.
    metrics["host.rep_cpu_s"] =
        medianOf(timed, [](auto &r) { return r.cpu; });
    metrics["host.ref_cpu_s"] =
        medianOf(timed, [](auto &r) { return r.refCpu; });
    metrics["host.elapsed_s"] =
        medianOf(timed, [](auto &r) { return r.elapsed; });

    // Count-type metrics: identical in every repetition (checked above
    // through the digest), so the warm-up supplies them.
    std::map<std::string, double> counts;
    const auto &c = warm.counters;
    auto ctr = [&](const char *name) {
        const auto it = c.find(name);
        return it == c.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double ops = static_cast<double>(warm.opsRetired);
    const double events = static_cast<double>(warm.events);
    counts["sim.ticks"] = static_cast<double>(warm.ticks);
    counts["sim.events"] = events;
    counts["sim.ops"] = ops;
    counts["sim.queue_high_water"] = static_cast<double>(warm.highWater);
    for (const auto &[name, v] : c) {
        const bool per_tile =
            name.rfind("gpm.t", 0) == 0 && name.size() > 5 &&
            std::isdigit(static_cast<unsigned char>(name[5]));
        if (!per_tile)
            counts["registry." + name] = static_cast<double>(v);
    }

    if (args.trace) {
        const Repetition &t0 = traced.front();
        counts["mem.allocs_setup"] = static_cast<double>(t0.allocsSetup);
        counts["sim.allocs_run"] = static_cast<double>(t0.allocsRun);

        metrics["driver.build_s"] =
            medianOf(traced, [](auto &r) { return r.scaled(r.build); });
        metrics["driver.load_s"] =
            medianOf(traced, [](auto &r) { return r.scaled(r.load); });
        metrics["driver.run_s"] =
            medianOf(traced, [](auto &r) { return r.scaled(r.sim); });
        metrics["driver.teardown_s"] =
            medianOf(traced, [](auto &r) { return r.scaled(r.teardown); });
        metrics["workloads.gen_s"] =
            medianOf(traced, [](auto &r) { return r.scaled(r.gen); });
        metrics["obs.export_s"] =
            medianOf(traced, [](auto &r) { return r.scaled(r.exportS); });

        metrics["sim.events_per_op"] = ratio(events, ops);
        metrics["sim.host_ns_per_event"] =
            1e9 * medianOf(traced, [](auto &r) { return r.scaled(r.sim); }) /
            std::max(events, 1.0);
        metrics["sim.allocs_per_event"] =
            ratio(static_cast<double>(t0.allocsRun), events);
        metrics["sim.queue_high_water"] =
            static_cast<double>(warm.highWater);
        metrics["sim.ticks"] = static_cast<double>(warm.ticks);

        metrics["gpm.remote_stalls_per_op"] =
            ratio(ctr("gpm.remote_stalls"), ops);
        metrics["gpm.l1_tlb_hit_frac"] = ratio(ctr("gpm.l1_tlb_hits"), ops);
        metrics["gpm.probe_hit_frac"] =
            ratio(ctr("gpm.probe_hits"), ctr("gpm.probes_received"));

        metrics["mem.cuckoo_fp_frac"] =
            ratio(ctr("gpm.cuckoo_false_positives"),
                  ctr("gpm.ll_tlb_hits") + ctr("gpm.local_walks"));
        metrics["mem.local_walks_per_op"] =
            ratio(ctr("gpm.local_walks"), ops);
        metrics["mem.allocs_setup"] = static_cast<double>(t0.allocsSetup);

        metrics["noc.packets_per_op"] = ratio(ctr("noc.packets"), ops);
        metrics["noc.hops_per_packet"] =
            ratio(ctr("noc.total_hops"), ctr("noc.packets"));
        metrics["noc.invalidation_frac"] =
            ratio(ctr("gpm.invalidations_received"), ctr("noc.packets"));

        metrics["iommu.walks_per_op"] =
            ratio(ctr("iommu.walks_started"), ops);
        metrics["iommu.ingress_stalls_per_op"] =
            ratio(ctr("iommu.ingress_stalls"), ops);
        metrics["iommu.rt_hit_frac"] =
            ratio(ctr("iommu.rt.hits"), ctr("iommu.rt.lookups"));
        metrics["iommu.fault_retries_per_op"] =
            ratio(ctr("iommu.fault_retries"), ops);

        // Share of remote translations not served by the IOMMU
        // (RunResult::offloadedFraction over the summed sources).
        double remote = 0, iommu_served = 0;
        for (std::size_t i = 0; i < kNumTranslationSources; ++i) {
            const auto src = static_cast<TranslationSource>(i);
            const double n = ctr((std::string("translation.source.") +
                                  translationSourceName(src))
                                     .c_str());
            remote += n;
            if (src == TranslationSource::IommuWalk ||
                src == TranslationSource::IommuTlb)
                iommu_served += n;
        }
        metrics["hdpat.offload_frac"] =
            remote > 0 ? 1.0 - iommu_served / remote : 0.0;

        for (std::size_t i = 0; i < kNumProfSections; ++i) {
            const auto sec = static_cast<ProfSection>(i);
            metrics[std::string("prof.") + profSectionName(sec) + "_s"] =
                medianOf(traced, [i](auto &r) {
                    return r.scaled(1e-9 * static_cast<double>(
                                               r.profile.sections[i].nanos));
                });
        }
        metrics["trace.overhead_frac"] =
            medianOf(traced, [](auto &r) { return r.scaled(r.cpu); }) /
                metrics["rep_s"] -
            1.0;
        std::vector<double> coverage;
        for (const Repetition &r : traced)
            coverage.push_back(r.spanCoverage);
        metrics["trace.span_coverage_frac"] =
            *std::min_element(coverage.begin(), coverage.end());

        if (!args.spansPath.empty()) {
            std::ofstream out(args.spansPath);
            bench.spans().write(out);
            if (!out) {
                std::cerr << "hdpat_perfbench: cannot write spans to "
                          << args.spansPath << '\n';
                return 1;
            }
        }
    }

    // Fig 14's headline: geomean HDPAT speedup over the central IOMMU.
    double paper_err_pct = -1, fig14_geomean = 0;
    if (wl.fig14) {
        const std::size_t n = workloadAbbrs().size();
        const std::size_t hdpat_base = (fig14Policies().size() - 1) * n;
        double log_sum = 0;
        for (std::size_t w = 0; w < n; ++w) {
            log_sum += std::log(static_cast<double>(warm.runTicks[w]) /
                                static_cast<double>(
                                    warm.runTicks[hdpat_base + w]));
        }
        fig14_geomean = std::exp(log_sum / static_cast<double>(n));
        paper_err_pct = std::fabs(fig14_geomean - kPaperFig14Speedup) /
                        kPaperFig14Speedup * 100.0;
        counts["paper_err_pct"] = paper_err_pct;
    }

    // ---- Result line ----------------------------------------------------
    const SystemConfig &cfg = wl.runs.front().config;
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(warm.digest));
    std::ostringstream line;
    JsonWriter w(line);
    w.beginObject();
    w.field("attempted", attempted);
    w.field("failed", failed);
    w.key("failures").beginArray();
    for (const std::string &f : failures)
        w.value(f);
    w.endArray();
    w.key("metrics").beginObject();
    for (const auto &[k, v] : metrics)
        w.field(k, v);
    w.endObject();
    w.key("counts").beginObject();
    for (const auto &[k, v] : counts)
        w.field(k, v);
    w.endObject();
    w.field("digest", std::string(digest));
    if (wl.fig14) {
        w.field("fig14_hdpat_geomean", fig14_geomean);
        w.field("paper_err_pct", paper_err_pct);
    }
    w.key("provenance").beginObject();
    w.field("workload", wl.name);
    w.field("build_type", HDPAT_PERFBENCH_BUILD_TYPE);
    w.field("compiler", HDPAT_PERFBENCH_COMPILER);
    w.field("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    w.field("config", cfg.name);
    w.field("mesh", std::to_string(cfg.meshWidth) + "x" +
                        std::to_string(cfg.meshHeight));
    w.field("runs_per_repetition",
            static_cast<std::uint64_t>(wl.runs.size()));
    w.field("ops_per_gpm", static_cast<std::uint64_t>(wl.opsPerGpm));
    w.field("workload_seed", args.seed);
    w.field("tenancy_seed", wl.runs.front().tenancy.seed);
    w.field("timed_repetitions", static_cast<std::uint64_t>(timed.size()));
    w.field("traced_repetitions",
            static_cast<std::uint64_t>(traced.size()));
    w.endObject();
    w.endObject();
    std::cout << line.str() << '\n';
    return 0;
}
