/**
 * @file
 * adbench: the repository's end-to-end benchmark.
 *
 * One process runs one workload through the whole life of a serving
 * replica: cold-plan its plan set, persist the plans in a PlanStore,
 * serve seeded arrival traces through the PlanCache, and restart fresh
 * replicas from the store. It checks every output it produces and
 * prints each end-to-end metric (with `--trace 1`, each per-layer
 * metric instead) as one JSON object on the last line of stdout.
 *
 * Host time is taken from outside, with obs::Stopwatch around calls to
 * public entry points; the driver never reaches into a layer. Simulated
 * metrics come from the deterministic simulator on inputs that do not
 * depend on `--seed`, so they repeat exactly in every run; the seed
 * picks the arrival traces the timed part serves. README.md lists the
 * workloads, the metrics with their units and bounds, and which
 * end-to-end metric each per-layer metric should move.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baselines/planners.hh"
#include "check/conservation.hh"
#include "core/atom_generator.hh"
#include "core/atomic_dag.hh"
#include "core/orchestrator.hh"
#include "core/plan_io.hh"
#include "core/scheduler.hh"
#include "core/shape_catalog.hh"
#include "core/validation.hh"
#include "engine/cached_cost_model.hh"
#include "models/models.hh"
#include "obs/clock.hh"
#include "obs/instrumentation.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/plan_cache.hh"
#include "serve/plan_store.hh"
#include "serve/request_stream.hh"
#include "serve/serve_loop.hh"
#include "sim/mesh_view.hh"
#include "sim/system.hh"
#include "util/thread_pool.hh"

namespace {

namespace fs = std::filesystem;
using ad::Bytes;
using ad::Cycles;

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

constexpr const char *kUsage =
    "usage: adbench --workload plan-zoo|plan-batch|serve-colo|serve-evict\n"
    "               [--seed N] [--threads N] [--seconds S] [--trace 0|1]\n"
    "               [--out DIR] [--smoke]\n";

/** A malformed command line: reported with the usage text, exit 2. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Parsed flags. */
struct Cli
{
    std::string workload;
    std::uint64_t seed = 7;   ///< drives only the timed arrival traces
    int threads = 0;          ///< 0 = min(4, hardware threads)
    double seconds = 8.0;     ///< length of the timed part
    bool trace = false;       ///< per-layer run instead of end-to-end
    bool smoke = false;       ///< one repeat of everything, no timed
                              ///< budget (tests)
    std::string out = "adbench-out"; ///< plan stores and trace JSON
};

/** Whole-string non-negative decimal integer. */
std::uint64_t
parseU64(const std::string &flag, const std::string &text)
{
    const bool digits =
        !text.empty() && std::all_of(text.begin(), text.end(),
                                     [](unsigned char c) {
                                         return std::isdigit(c) != 0;
                                     });
    if (!digits) {
        throw UsageError(flag + " expects a non-negative integer, got '" +
                         text + "'");
    }
    try {
        return std::stoull(text);
    } catch (const std::out_of_range &) {
        throw UsageError(flag + " value '" + text + "' is out of range");
    }
}

/** Whole-string finite positive number. */
double
parsePositive(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    double value = 0.0;
    try {
        value = std::stod(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (text.empty() || used != text.size() || !std::isfinite(value) ||
        value <= 0.0) {
        throw UsageError(flag + " expects a positive number, got '" +
                         text + "'");
    }
    return value;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"plan-zoo", "plan-batch",
                                                "serve-colo",
                                                "serve-evict"};
    return names;
}

Cli
parseCli(int argc, char **argv)
{
    Cli cli;
    const std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        if (flag == "--smoke") {
            cli.smoke = true;
            continue;
        }
        const bool known = flag == "--workload" || flag == "--seed" ||
                           flag == "--threads" || flag == "--seconds" ||
                           flag == "--trace" || flag == "--out";
        if (!known)
            throw UsageError("unknown argument '" + flag + "'");
        if (i + 1 >= args.size())
            throw UsageError(flag + " needs a value");
        const std::string &value = args[++i];
        if (flag == "--workload") {
            const auto &names = workloadNames();
            if (std::find(names.begin(), names.end(), value) ==
                names.end()) {
                throw UsageError("unknown workload '" + value + "'");
            }
            cli.workload = value;
        } else if (flag == "--seed") {
            cli.seed = parseU64(flag, value);
        } else if (flag == "--threads") {
            const std::uint64_t n = parseU64(flag, value);
            if (n < 1 || n > 256)
                throw UsageError("--threads must be in [1, 256]");
            cli.threads = static_cast<int>(n);
        } else if (flag == "--seconds") {
            cli.seconds = parsePositive(flag, value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw UsageError("--trace expects 0 or 1, got '" + value +
                                 "'");
            cli.trace = value == "1";
        } else {
            if (value.empty())
                throw UsageError("--out needs a directory");
            cli.out = value;
        }
    }
    if (cli.workload.empty())
        throw UsageError("--workload is required");
    if (cli.threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        cli.threads = static_cast<int>(std::clamp(hw, 1u, 4u));
    }
    return cli;
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank @p q quantile (the serving layer's convention). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0.0;
    for (const double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------
// Host spans
// ---------------------------------------------------------------------

/** Track of the benchmark's own spans (below the engine tracks, clear
 * of the simulator's reserved system tracks). */
constexpr std::int32_t kTrackHostBench = 8;

/**
 * Wall-clock spans around the benchmark's calls into each layer. Spans
 * go to a Perfetto trace on the `host.bench` track only with
 * `--trace 1`; the timing itself is always taken. Timestamps are
 * microseconds since the benchmark started; every span carries the id
 * of the plan or pass it belongs to.
 */
class HostSpans
{
  public:
    explicit HostSpans(bool record) : _record(record)
    {
        if (_record) {
            _trace.setProcessName("adbench");
            _trace.setTrackName(kTrackHostBench, "host.bench");
        }
    }

    /** Seconds since the benchmark started. */
    double now() const { return _epoch.seconds(); }

    /** Close span @p name of plan or pass @p id opened at @p start;
     * returns its length in seconds. */
    double
    close(std::string_view name, int id, double start)
    {
        const double end = now();
        if (_record) {
            ad::obs::JsonArgs args;
            args.add("id", id);
            _trace.span(kTrackHostBench, micros(start),
                        micros(end) - micros(start), name, args.str());
        }
        return end - start;
    }

    /** Run @p fn as span @p name of @p id; returns its seconds. */
    template <typename Fn>
    double
    time(std::string_view name, int id, Fn &&fn)
    {
        const double start = now();
        fn();
        return close(name, id, start);
    }

    /** Write the Perfetto JSON to @p path. */
    void
    write(const fs::path &path) const
    {
        std::ofstream file(path);
        file << _trace.perfettoJson();
        if (!file)
            ad::fatal("cannot write trace '", path.string(), "'");
    }

  private:
    static Cycles
    micros(double seconds)
    {
        return static_cast<Cycles>(std::llround(seconds * 1e6));
    }

    bool _record;
    ad::obs::Stopwatch _epoch;
    ad::obs::TraceRecorder _trace;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One SLO class of a workload's arrival traffic (Poisson). */
struct Traffic
{
    std::vector<std::string> mix;
    double ratePerSec = 0.0;
    int requests = 0;
    double deadlineMs = 0.0;
    int batch = 1;
};

/**
 * A workload: the plan set a replica compiles and the traffic it then
 * serves. Every workload runs the same lifecycle, so every metric
 * exists on every workload; they differ in which part is timed and in
 * the inputs that decide which layers dominate (README.md says why each
 * was chosen).
 */
struct Workload
{
    std::string name;
    std::vector<std::string> nets; ///< plan set, planned cold
    int batch = 1;
    ad::sim::MeshView view; ///< the executor shape the plan set targets
    /** Serving sub-meshes; empty = one whole-mesh executor. */
    std::vector<ad::sim::MeshView> executors;
    Bytes cacheBudget = ad::serve::ServeOptions{}.cacheBudgetBytes;
    std::size_t queueCapacity = ad::serve::ServeOptions{}.queueCapacity;
    Traffic latency;                   ///< latency-class stream
    std::optional<Traffic> batchClass; ///< batch-class stream
    /** Timed part: warm serving passes and restarts when true, cold
     * plans of the plan set otherwise. */
    bool servingTimed = false;
};

Workload
workloadFor(const std::string &name)
{
    const ad::sim::MeshView half{0, 0, 4, 8, 0, 0, 0.5};
    const ad::sim::MeshView other_half{4, 0, 4, 8, 0, 0, 0.5};
    const auto zoo = ad::serve::resolveMix("zoo");

    Workload w;
    w.name = name;
    if (name == "plan-zoo") {
        w.nets = zoo;
        w.latency = {zoo, 200.0, 32, 50.0, 1};
    } else if (name == "plan-batch") {
        w.nets = {"resnet50", "inception_v3", "efficientnet", "resnet152"};
        w.batch = 8;
        w.view = half;
        w.executors = {half};
        w.latency = {w.nets, 20.0, 32, 500.0, 8};
    } else if (name == "serve-colo") {
        const auto tiny = ad::serve::resolveMix("tinymix");
        const std::vector<std::string> heavy{"resnet50", "resnet152",
                                             "resnet1001",
                                             "efficientnet"};
        w.nets = tiny;
        w.nets.insert(w.nets.end(), heavy.begin(), heavy.end());
        w.view = half;
        w.executors = {half, other_half};
        w.latency = {tiny, 4000.0, 32, 50.0, 1};
        w.batchClass = Traffic{heavy, 2000.0, 32, 2000.0, 1};
        // The batch burst outruns both executors; admit the whole trace
        // so it queues instead of being refused.
        w.queueCapacity = 64;
        w.servingTimed = true;
    } else {
        w.nets = zoo;
        w.cacheBudget = Bytes{24} << 20;
        w.latency = {zoo, 200.0, 32, 50.0, 1};
        w.servingTimed = true;
    }
    return w;
}

// ---------------------------------------------------------------------
// One benchmark run
// ---------------------------------------------------------------------

/** One output metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** A net of the plan set with its cold-plan samples. */
struct NetPlan
{
    std::string name;
    ad::graph::Graph graph;
    std::optional<ad::core::PlanResult> winner; ///< first cold plan
    std::vector<double> walls; ///< cold plan() seconds, one per plan
};

/**
 * Simulated serving results pooled over a set of traces. Simulated time
 * is kept in millions of simulator cycles (Mcycles), apart from the
 * makespan behind the simulated request rate.
 */
struct Pooled
{
    std::vector<double> latency; ///< Mcycles; latency class, in time
    std::uint64_t requests = 0;  ///< any class
    std::uint64_t failures = 0;  ///< rejected or late, any class
    std::uint64_t latencyFailures = 0;
    std::uint64_t completed = 0;
    double makespanSeconds = 0.0;
    std::vector<double> wait; ///< Mcycles; queue wait, admitted
    std::uint64_t preemptions = 0;
    std::uint64_t downgrades = 0;
    std::uint64_t rejected = 0;

    double
    rps() const
    {
        return static_cast<double>(completed) / makespanSeconds;
    }

    /** p99 latency with every failed latency-class request counted as
     * missing the limit (infinitely late). */
    double
    p99WithFailures() const
    {
        std::vector<double> all = latency;
        all.insert(all.end(), latencyFailures,
                   std::numeric_limits<double>::infinity());
        return quantile(std::move(all), 0.99);
    }
};

class Run
{
  public:
    Run(const Workload &workload, const Cli &cli);

    /** Run the workload, print the result; returns the exit code. */
    int execute();

  private:
    // Life-cycle stages.
    void setUp();
    double coldRound(bool measured);
    void persistWinners();
    void openReplica();
    void serveTimed(double budget_seconds, std::size_t min_passes,
                    std::size_t min_restarts);
    void restartOnce(std::size_t trace);
    Pooled serveSimulated(const std::vector<ad::serve::MergedTrace> &traces,
                          std::vector<ad::serve::ServeReport> *reports);
    void checkNominal(const Pooled &pooled, const char *traces);
    double sloRate();
    void perLayer();
    void tracedRound();
    void replayLayers(const NetPlan &net, int id);
    void storageLayers();

    // Helpers.
    /**
     * Arrival seed of the scored traces, the ones the simulated serving
     * metrics are computed on. It is fixed, so those metrics depend on
     * the code alone and repeat exactly across `--seed`; the seed picks
     * the timed traces.
     */
    static constexpr std::uint64_t kScoredSeed = 7;
    /** Trace @p index of seed @p seed, with every class's rate times
     * @p load and its request count times @p length. */
    ad::serve::MergedTrace makeTrace(std::uint64_t seed, std::size_t index,
                                     double load = 1.0,
                                     int length = 1) const;
    ad::serve::ServeOptions serveOptions(Bytes budget) const;
    ad::core::OrchestratorOptions planOptions() const;
    ad::serve::PlanKey keyFor(const std::string &strategy,
                              const NetPlan &net) const;
    void checkPlan(const NetPlan &net, const ad::core::PlanResult &plan);
    void checkServe(const ad::serve::ServeReport &got,
                    std::size_t trace, const char *what);
    void fail(const std::string &what, std::uint64_t n = 1);
    void attempt(std::uint64_t n = 1) { _attempted += n; }
    void add(const std::string &name, double value)
    {
        _layer[name] += value;
    }
    /** Run @p fn as span @p name of @p id and add its milliseconds to
     * the per-layer metric `<name>_ms`. */
    template <typename Fn>
    void
    timeLayer(const std::string &name, int id, Fn &&fn)
    {
        add(name + "_ms", 1e3 * _spans.time(name, id, fn));
    }
    int nextId() { return _nextId++; }
    std::vector<Metric> endToEnd() const;
    std::vector<Metric> layerMetrics() const;
    void printNets() const;

    const Workload _w;
    const Cli _cli;
    const ad::sim::SystemConfig _system{};
    const ad::sim::SystemConfig _viewSystem;
    const double _budget;             ///< seconds of the timed part
    const std::size_t _timedTraces;   ///< seeded traces the clock serves
    const std::size_t _scoredTraces;  ///< fixed traces, simulated only
    const std::size_t _openTraces;    ///< traces a replica opens on
    const fs::path _store;
    HostSpans _spans;

    std::vector<NetPlan> _nets;
    std::vector<ad::serve::MergedTrace> _traces; ///< timed, nominal rate
    std::vector<ad::serve::ServeReport> _reference; ///< per timed trace
    std::unique_ptr<ad::serve::ServeLoop> _replica;
    std::unique_ptr<ad::serve::ServeLoop> _probe;

    std::vector<double> _setupSeconds;
    std::vector<double> _passSeconds;    ///< warm ServeLoop::run walls
    std::vector<double> _dispatchUs;     ///< per window: wall / requests
    std::vector<double> _restartSeconds;
    Pooled _scored; ///< the scored traces: simulated serving metrics
    Pooled _seeded; ///< the timed traces, printed for held-out seeds
    double _slo = 0.0;
    std::uint64_t _storeCorrupt = 0;

    std::map<std::string, double> _layer; ///< per-layer sums

    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
    int _nextId = 1;
};

Run::Run(const Workload &workload, const Cli &cli)
    : _w(workload), _cli(cli),
      _viewSystem(ad::sim::viewSystem(_system, workload.view)),
      _budget(cli.smoke ? 0.0 : cli.seconds),
      _timedTraces(cli.smoke ? 2 : 256), _scoredTraces(cli.smoke ? 2 : 512),
      _openTraces(cli.smoke ? 1 : 4),
      _store(fs::path(cli.out) / (workload.name + ".store")),
      _spans(cli.trace)
{
}

ad::core::OrchestratorOptions
Run::planOptions() const
{
    ad::core::OrchestratorOptions options;
    options.batch = _w.batch;
    return options;
}

ad::serve::PlanKey
Run::keyFor(const std::string &strategy, const NetPlan &net) const
{
    return ad::serve::makePlanKey(strategy, net.graph, _system,
                                  planOptions(), _w.view);
}

ad::serve::ServeOptions
Run::serveOptions(Bytes budget) const
{
    ad::serve::ServeOptions options;
    options.storeDir = _store.string();
    options.submeshes = _w.executors;
    options.cacheBudgetBytes = budget;
    options.queueCapacity = _w.queueCapacity;
    return options;
}

ad::serve::MergedTrace
Run::makeTrace(std::uint64_t seed, std::size_t index, double load,
               int length) const
{
    // Trace i of seed S draws arrival seed 10000*S + i, so the traces of
    // two seeds never overlap.
    const std::uint64_t arrival_seed = seed * 10000 + index;
    const auto stream = [&](const Traffic &t) {
        ad::serve::StreamOptions s;
        s.kind = ad::serve::ArrivalKind::Poisson;
        s.ratePerSec = t.ratePerSec * load;
        s.requests = t.requests * length;
        s.seed = arrival_seed;
        s.deadlineMs = t.deadlineMs;
        s.batch = t.batch;
        s.freqGhz = _system.engine.freqGhz;
        s.mix = t.mix;
        return s;
    };
    std::vector<ad::serve::ClassTraffic> classes{
        {ad::serve::SloClass::Latency, stream(_w.latency)}};
    if (_w.batchClass) {
        classes.push_back(
            {ad::serve::SloClass::Batch, stream(*_w.batchClass)});
    }
    return ad::serve::generateClassArrivals(classes);
}

void
Run::fail(const std::string &what, std::uint64_t n)
{
    _failed += n;
    std::cerr << "adbench: FAIL: " << what << "\n";
}

void
Run::checkPlan(const NetPlan &net, const ad::core::PlanResult &plan)
{
    attempt();
    if (!plan.dag) {
        fail(net.name + ": plan has no atomic DAG");
        return;
    }
    std::vector<std::string> problems;
    for (const auto &v : ad::core::validateSchedule(
             *plan.dag, plan.schedule, _viewSystem.engines())) {
        problems.push_back(std::string(ad::core::violationKindName(v.kind)) +
                           ": " + v.what);
    }
    for (const auto &v : ad::check::auditExecution(
             *plan.dag, plan.schedule, _viewSystem, plan.report)) {
        problems.push_back(std::string(ad::check::auditKindName(v.kind)) +
                           ": " + v.what);
    }
    const auto decoded =
        ad::core::decodePlanResult(ad::core::encodePlanResult(plan));
    if (!decoded || !decoded->report.bitIdentical(plan.report))
        problems.push_back("plan_io round trip is not bit-identical");
    if (net.winner && !net.winner->report.bitIdentical(plan.report)) {
        problems.push_back(
            "repeated cold plan differs (cycles " +
            std::to_string(net.winner->report.totalCycles) + " vs " +
            std::to_string(plan.report.totalCycles) + ")");
    }
    if (problems.empty())
        return;
    std::string what = net.name + ":";
    for (const std::string &p : problems)
        what += " " + p + ";";
    fail(what);
}

void
Run::checkServe(const ad::serve::ServeReport &got, std::size_t trace,
                const char *what)
{
    attempt();
    if (!got.bitIdentical(_reference[trace])) {
        fail(std::string(what) + " on trace " + std::to_string(trace) +
             " is not bit-identical to the reference pass");
    }
}

/**
 * Set-up: what a replica does before its first timed request. Always:
 * build the graphs, generate the arrival traces, and plan and persist
 * the Layer-Sequential fallback the serving loop degrades to under
 * deadline pressure. Serving workloads also cold-plan the plan set,
 * persist it and open the replica on the store.
 */
void
Run::setUp()
{
    const double start = _spans.now();
    const int id = nextId();
    ad::engine::CachedCostModel::clearSharedStores();
    _replica.reset();
    fs::remove_all(_store);
    fs::create_directories(_store);

    // The per-layer set-up metrics describe the last set-up.
    for (const char *name :
         {"graph.build_ms", "stream.generate_ms", "fallback.plan_ms"})
        _layer[name] = 0.0;

    if (_nets.empty())
        _nets.resize(_w.nets.size());
    for (std::size_t i = 0; i < _w.nets.size(); ++i) {
        timeLayer("graph.build", id, [&] {
            _nets[i].name = _w.nets[i];
            _nets[i].graph = ad::models::buildByName(_w.nets[i]);
        });
    }

    timeLayer("stream.generate", id, [&] {
        _traces.clear();
        for (std::size_t t = 0; t < _timedTraces; ++t)
            _traces.push_back(makeTrace(_cli.seed, t));
    });

    {
        const std::string fallback = ad::serve::ServeOptions{}.fallbackStrategy;
        ad::serve::PlanStore store(_store.string());
        for (const NetPlan &net : _nets) {
            std::optional<ad::core::PlanResult> plan;
            timeLayer("fallback.plan", id, [&] {
                plan = ad::baselines::makePlanner(
                           {fallback, _system, _w.view, planOptions()})
                           ->plan(net.graph);
            });
            if (!store.put(keyFor(fallback, net), *plan))
                fail(net.name + ": plan store write failed");
        }
    }

    if (_w.servingTimed) {
        coldRound(true);
        persistWinners();
        openReplica();
    }
    _setupSeconds.push_back(_spans.close("setup", id, start));
}

/** Plan every net cold once; returns the round's total wall. A measured
 * round adds each wall to its net's samples and checks each plan. */
double
Run::coldRound(bool measured)
{
    double total = 0.0;
    for (NetPlan &net : _nets) {
        const int id = nextId();
        // A cold replica pays the cost-model memo too.
        ad::engine::CachedCostModel::clearSharedStores();
        const ad::core::Orchestrator planner(_system, planOptions(),
                                             _w.view);
        std::optional<ad::core::PlanResult> plan;
        const double wall = _spans.time("plan", id, [&] {
            plan = planner.plan(net.graph);
        });
        total += wall;
        if (measured) {
            net.walls.push_back(wall);
            checkPlan(net, *plan);
        }
        if (!net.winner)
            net.winner = std::move(plan);
    }
    return total;
}

void
Run::persistWinners()
{
    const ad::serve::ServeOptions defaults;
    ad::serve::PlanStore store(_store.string());
    for (const NetPlan &net : _nets) {
        if (!store.put(keyFor(defaults.strategy, net), *net.winner))
            fail(net.name + ": plan store write failed");
    }
}

/** Open the serving replica on the populated store and serve its first
 * traces until a pass misses nothing (the all-hit fixed point). */
void
Run::openReplica()
{
    _replica = std::make_unique<ad::serve::ServeLoop>(
        _system, serveOptions(_w.cacheBudget));
    for (std::size_t t = 0; t < _openTraces; ++t) {
        const auto &trace = _traces[t];
        std::uint64_t misses = _replica->run(trace.requests, trace.mix)
                                   .cacheMisses;
        for (int i = 0; i < 6 && misses != 0; ++i)
            misses = _replica->run(trace.requests, trace.mix).cacheMisses;
        attempt();
        if (misses != 0) {
            fail("replica passes on trace " + std::to_string(t) +
                 " never reached the all-hit fixed point");
        }
    }
}

/**
 * Serve @p traces on the probe replica and pool the simulated results.
 * The probe has the default cache budget: simulated outcomes do not
 * depend on which cache tier served a plan, which the replica's
 * bit-identity checks confirm.
 */
Pooled
Run::serveSimulated(const std::vector<ad::serve::MergedTrace> &traces,
                    std::vector<ad::serve::ServeReport> *reports)
{
    if (!_probe) {
        _probe = std::make_unique<ad::serve::ServeLoop>(
            _system,
            serveOptions(ad::serve::ServeOptions{}.cacheBudgetBytes));
    }
    const double freq_hz = _system.engine.freqGhz * 1e9;
    const auto mcycles = [](Cycles c) { return static_cast<double>(c) / 1e6; };
    Pooled pooled;
    for (const ad::serve::MergedTrace &trace : traces) {
        ad::serve::ServeReport report =
            _probe->run(trace.requests, trace.mix);
        pooled.requests += report.outcomes.size();
        for (const auto &out : report.outcomes) {
            const bool failed = !out.admitted || out.deadlineMiss;
            pooled.failures += failed ? 1 : 0;
            if (out.admitted)
                pooled.wait.push_back(mcycles(out.start - out.arrival));
            if (out.slo != ad::serve::SloClass::Latency)
                continue;
            if (failed)
                ++pooled.latencyFailures;
            else
                pooled.latency.push_back(mcycles(out.finish - out.arrival));
        }
        pooled.completed += report.completed;
        pooled.makespanSeconds +=
            static_cast<double>(report.makespan) / freq_hz;
        pooled.preemptions += report.preemptions;
        pooled.downgrades +=
            report.downgradedCached + report.downgradedFresh;
        pooled.rejected += report.rejected;
        if (reports)
            reports->push_back(std::move(report));
    }
    return pooled;
}

/**
 * Highest sustained load, reported as its latency-class arrival rate,
 * at which 99% of latency-class requests are admitted and finish within
 * their deadline. Every class's rate scales together; the multiplier is
 * found by bisection in log space over [1/16, 16]. A replica that misses
 * the limit even at 1/16 of the nominal load fails the run. The probe
 * traces come from the scored seed, after the scored traces, and are
 * kSloLength times longer than those, so a load the replica cannot
 * sustain builds a backlog that overflows the admission queue or the
 * deadline instead of draining after a burst.
 */
double
Run::sloRate()
{
    constexpr int kSloLength = 8;
    const std::size_t probes = _cli.smoke ? 1 : 12;
    const double limit =
        _w.latency.deadlineMs * _system.engine.freqGhz; // Mcycles
    const auto meets = [&](double load) {
        std::vector<ad::serve::MergedTrace> traces;
        for (std::size_t t = 0; t < probes; ++t) {
            traces.push_back(makeTrace(kScoredSeed, _scoredTraces + t, load,
                                       kSloLength));
        }
        return serveSimulated(traces, nullptr).p99WithFailures() <= limit;
    };
    double lo = 1.0 / 16.0;
    double hi = 16.0;
    attempt();
    if (!meets(lo)) {
        fail("the latency class misses its limit even at 1/16 of the "
             "nominal load");
        return 0.0;
    }
    if (meets(hi))
        return hi * _w.latency.ratePerSec;
    const int steps = _cli.smoke ? 2 : 9;
    for (int i = 0; i < steps; ++i) {
        const double mid = std::sqrt(lo * hi);
        (meets(mid) ? lo : hi) = mid;
    }
    return lo * _w.latency.ratePerSec;
}

/** Every request of @p pooled, served on the @p traces traces at the
 * nominal rate, is one operation: it fails if rejected or late. */
void
Run::checkNominal(const Pooled &pooled, const char *traces)
{
    attempt(pooled.requests);
    if (pooled.failures == 0)
        return;
    fail(std::to_string(pooled.failures) + " requests of the " + traces +
             " traces failed at the nominal rate (" +
             std::to_string(pooled.rejected) + " rejected, " +
             std::to_string(pooled.latencyFailures) +
             " of the latency class)",
         pooled.failures);
}

void
Run::restartOnce(std::size_t trace)
{
    const int id = nextId();
    const double start = _spans.now();
    std::optional<ad::serve::ServeLoop> fresh;
    _spans.time("serve.construct", id, [&] {
        fresh.emplace(_system, serveOptions(_w.cacheBudget));
    });
    std::optional<ad::serve::ServeReport> report;
    _spans.time("serve.run", id, [&] {
        report = fresh->run(_traces[trace].requests, _traces[trace].mix);
    });
    _restartSeconds.push_back(_spans.close("restart", id, start));
    checkServe(*report, trace, "restarted replica");
    _storeCorrupt += fresh->store()->stats().corrupt;
}

/**
 * Warm passes on the open replica, each on the next timed trace, with
 * a fresh replica restarted from the store after every fifth pass. Runs
 * until @p budget_seconds have passed and both minimum counts are met.
 * Each dispatch sample spans consecutive passes adding up to at least
 * kDispatchWindow seconds, so one sample is never a single sub-
 * millisecond pass that a timer interrupt can double.
 */
void
Run::serveTimed(double budget_seconds, std::size_t min_passes,
                std::size_t min_restarts)
{
    constexpr double kDispatchWindow = 0.02;
    const ad::obs::Stopwatch clock;
    std::size_t pass = 0;
    std::size_t restarts = 0;
    double window_seconds = 0.0;
    std::size_t window_requests = 0;
    while (clock.seconds() < budget_seconds || pass < min_passes ||
           restarts < min_restarts) {
        const std::size_t t = pass % _traces.size();
        const auto &trace = _traces[t];
        const int id = nextId();
        std::optional<ad::serve::ServeReport> report;
        const double wall = _spans.time("pass", id, [&] {
            report = _replica->run(trace.requests, trace.mix);
        });
        _passSeconds.push_back(wall);
        window_seconds += wall;
        window_requests += trace.requests.size();
        if (window_seconds >= kDispatchWindow) {
            _dispatchUs.push_back(window_seconds * 1e6 /
                                  static_cast<double>(window_requests));
            window_seconds = 0.0;
            window_requests = 0;
        }
        checkServe(*report, t, "warm pass");
        ++pass;
        if (pass % 5 == 0 || (pass >= min_passes && restarts < min_restarts)) {
            restartOnce(restarts % _traces.size());
            ++restarts;
        }
    }
    if (_dispatchUs.empty()) {
        _dispatchUs.push_back(window_seconds * 1e6 /
                              static_cast<double>(window_requests));
    }
}

int
Run::execute()
{
    ad::util::ThreadPool::setGlobalThreads(_cli.threads);
    fs::create_directories(_cli.out);

    // Set-up, several times: the median is setup_s.
    const int setups = _cli.smoke ? 1 : 3;
    for (int i = 0; i < setups; ++i)
        setUp();

    // Timed part. Planning workloads spend three quarters of it on
    // whole cold rounds over the plan set and the rest serving; serving
    // workloads serve throughout.
    const std::size_t min_passes = _cli.smoke ? 1 : 20;
    const std::size_t min_restarts = _cli.smoke ? 1 : 5;
    double serve_seconds = _budget;
    if (!_w.servingTimed) {
        const ad::obs::Stopwatch clock;
        const int min_rounds = _cli.smoke ? 1 : 2;
        for (int round = 0;
             round < min_rounds || clock.seconds() < 0.75 * _budget;
             ++round) {
            coldRound(true);
        }
        persistWinners();
        openReplica();
        serve_seconds = 0.25 * _budget;
    }

    // Simulated serving. The scored traces give the simulated serving
    // metrics. The timed traces' reports are the reference that every
    // timed pass and restart must reproduce bit for bit.
    std::vector<ad::serve::MergedTrace> scored;
    for (std::size_t t = 0; t < _scoredTraces; ++t)
        scored.push_back(makeTrace(kScoredSeed, t));
    _scored = serveSimulated(scored, nullptr);
    checkNominal(_scored, "scored");
    _reference.clear();
    _seeded = serveSimulated(_traces, &_reference);
    checkNominal(_seeded, "timed");

    serveTimed(serve_seconds, min_passes, min_restarts);
    _storeCorrupt += _replica->store()->stats().corrupt +
                     _probe->store()->stats().corrupt;
    attempt();
    if (_storeCorrupt != 0)
        fail(std::to_string(_storeCorrupt) + " corrupt plan-store loads");

    _slo = sloRate();

    if (_cli.trace)
        perLayer();

    printNets();
    const std::vector<Metric> metrics =
        _cli.trace ? layerMetrics() : endToEnd();
    for (const Metric &m : metrics) {
        if (!std::isfinite(m.value))
            fail("metric " + m.name + " is not finite");
    }

    std::ostringstream json;
    json << "{\"correct\": " << (_failed == 0 ? "true" : "false")
         << ", \"attempted\": " << _attempted
         << ", \"failed\": " << _failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        const double value = std::isfinite(m.value) ? m.value : 0.0;
        json << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
             << ad::obs::formatMetricValue(value) << ", \"unit\": \""
             << m.unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;

    _replica.reset();
    _probe.reset();
    fs::remove_all(_store);
    return _failed == 0 ? 0 : 1;
}

std::vector<Metric>
Run::endToEnd() const
{
    double plan_seconds = 0.0;
    std::vector<double> cycles;
    std::vector<double> energy;
    for (const NetPlan &net : _nets) {
        plan_seconds += median(net.walls);
        cycles.push_back(static_cast<double>(net.winner->report.totalCycles));
        energy.push_back(net.winner->report.totalEnergyPj() / 1e6);
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return {
        {"setup_s", median(_setupSeconds), "s"},
        {"plan_s", plan_seconds, "s"},
        {"sim_cycles", geomean(cycles), "cycles"},
        {"sim_energy_uj", geomean(energy), "uJ"},
        {"lat_mean_mcycles", mean(_scored.latency), "Mcycles"},
        {"lat_p99_mcycles", quantile(_scored.latency, 0.99), "Mcycles"},
        {"serve_rps", _scored.rps(), "r/s"},
        {"slo_rps", _slo, "r/s"},
        {"dispatch_us", median(_dispatchUs), "us"},
        {"restart_s", median(_restartSeconds), "s"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6,
         "MB"},
    };
}

// ---------------------------------------------------------------------
// Per-layer run (--trace 1)
// ---------------------------------------------------------------------

/** `name value` lines of a metrics dump, histograms skipped. */
std::map<std::string, double>
parseMetrics(const ad::obs::MetricsRegistry &registry)
{
    std::map<std::string, double> out;
    std::istringstream lines(registry.renderText());
    std::string line;
    while (std::getline(lines, line)) {
        const auto space = line.find(' ');
        if (space == std::string::npos || line.find('[') < space)
            continue;
        try {
            out[line.substr(0, space)] = std::stod(line.substr(space + 1));
        } catch (const std::exception &) {
        }
    }
    return out;
}

/**
 * Replay every layer's public call once on the inputs the planner used
 * for @p net, timing each: shape catalog, SA generation, the winner's
 * atomic DAG rebuilt from its shapes, every scheduling mode with its
 * estimate, mapping of the winner's rounds, and simulation of the
 * winner's schedule on the rebuilt DAG.
 */
void
Run::replayLayers(const NetPlan &net, int id)
{
    const ad::core::PlanResult &winner = *net.winner;
    const ad::core::OrchestratorOptions options = planOptions();
    ad::engine::CachedCostModel::clearSharedStores();
    const ad::engine::CachedCostModel model(_viewSystem.engine,
                                            _viewSystem.dataflow);

    std::optional<ad::core::ShapeCatalog> catalog;
    timeLayer("catalog.build", id,
              [&] { catalog.emplace(net.graph, model); });
    double candidates = 0.0;
    for (const auto &layer : net.graph.layers())
        candidates +=
            static_cast<double>(catalog->candidatesFor(layer.id).size());
    add("catalog.candidates", candidates);

    timeLayer("sa.generate", id, [&] {
        (void)ad::core::SaAtomGenerator(options.sa).generate(*catalog);
    });

    std::vector<ad::core::TileShape> shapes;
    for (const auto &layer : net.graph.layers())
        shapes.push_back(winner.dag->shapeOf(layer.id));
    ad::core::AtomicDagOptions dag_options;
    dag_options.batch = options.batch;
    dag_options.bytesPerElem = _viewSystem.engine.bytesPerElem;
    std::optional<ad::core::AtomicDag> dag;
    timeLayer("dag.build", id,
              [&] { dag.emplace(net.graph, shapes, dag_options); });
    add("dag.atoms", static_cast<double>(dag->size()));

    for (const ad::core::SchedMode mode :
         {ad::core::SchedMode::Dp, ad::core::SchedMode::Greedy,
          ad::core::SchedMode::LayerOrder,
          ad::core::SchedMode::LayerBatched}) {
        ad::core::SchedulerOptions sched = options.scheduler;
        sched.engines = _viewSystem.engines();
        sched.mode = mode;
        std::optional<ad::core::DpScheduler> scheduler;
        ad::core::RoundList rounds;
        timeLayer("sched.schedule", id, [&] {
            scheduler.emplace(*dag, model, sched);
            rounds = scheduler->schedule();
        });
        timeLayer("sched.estimate", id,
                  [&] { (void)scheduler->estimateCost(rounds); });
    }
    add("sched.rounds", static_cast<double>(winner.report.rounds));

    ad::core::RoundList winner_rounds;
    for (const auto &round : winner.schedule.rounds) {
        winner_rounds.emplace_back();
        for (const auto &p : round.placements)
            winner_rounds.back().push_back(p.atom);
    }
    const ad::core::Orchestrator mapper(_system, options, _w.view);
    timeLayer("map.map", id, [&] {
        (void)mapper.mapRounds(*dag, winner_rounds, winner.schedule.mode);
    });

    const ad::sim::SystemSimulator simulator(_system, _w.view);
    std::optional<ad::sim::ExecutionReport> replayed;
    timeLayer("sim.execute", id, [&] {
        replayed = simulator.execute(*dag, winner.schedule);
    });
    attempt();
    if (!replayed->bitIdentical(winner.report))
        fail(net.name + ": winner DAG rebuilt from its shapes simulates "
                        "differently");
}

/**
 * The traced cold round: per net, plan(graph, &ins) with a metrics
 * registry, then the layer replay, under one parent span. The planner's
 * counters are summed over the plan set; a metric built on a counter
 * some plan did not record is left absent. Then the same cold round on
 * one thread, for the pool's speedup.
 */
void
Run::tracedRound()
{
    // The untraced plan_s of this same run is the baseline of both ratios.
    double untraced = 0.0;
    for (const NetPlan &net : _nets)
        untraced += median(net.walls);

    double traced = 0.0;
    std::map<std::string, double> counters;
    std::set<std::string> missing;
    for (const NetPlan &net : _nets) {
        const int id = nextId();
        const double start = _spans.now();
        ad::engine::CachedCostModel::clearSharedStores();
        const ad::core::Orchestrator planner(_system, planOptions(),
                                             _w.view);
        ad::obs::MetricsRegistry registry;
        ad::obs::Instrumentation ins;
        ins.metrics = &registry;
        std::optional<ad::core::PlanResult> plan;
        traced += _spans.time("plan", id, [&] {
            plan = planner.plan(net.graph, &ins);
        });
        attempt();
        if (!plan->report.bitIdentical(net.winner->report))
            fail(net.name + ": instrumented plan differs");

        const auto metrics = parseMetrics(registry);
        const auto take = [&](const char *key, std::optional<double> v) {
            if (v)
                counters[key] += *v;
            else
                missing.insert(key);
        };
        const auto named = [&](const char *name) -> std::optional<double> {
            const auto it = metrics.find(name);
            if (it == metrics.end())
                return std::nullopt;
            return it->second;
        };
        take("iterations", named("sa.iterations"));
        take("accepted", named("sa.accepted_moves"));
        take("hits", named("host.costmodel.hits"));
        take("misses", named("host.costmodel.misses"));

        replayLayers(net, id);
        _spans.close("net", id, start);
    }
    const auto recorded = [&](const char *a, const char *b) {
        return !missing.count(a) && !missing.count(b);
    };
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    if (recorded("iterations", "accepted")) {
        add("sa.iterations", counters["iterations"]);
        add("sa.accept_rate",
            ratio(counters["accepted"], counters["iterations"]));
    }
    if (recorded("hits", "misses")) {
        const double calls = counters["hits"] + counters["misses"];
        add("engine.cost_calls", calls);
        add("engine.cost_hit_ratio", ratio(counters["hits"], calls));
    }
    add("trace.overhead_frac", traced / untraced - 1.0);

    ad::util::ThreadPool::setGlobalThreads(1);
    const double one_thread = coldRound(false);
    ad::util::ThreadPool::setGlobalThreads(_cli.threads);
    add("pool.speedup", one_thread / untraced);
}

/**
 * Persistence and dispatch layers: plan_io and a plan store of its own
 * per net, key building per net, then lookups in the first trace's
 * request order on a cache with the workload's budget over that store.
 */
void
Run::storageLayers()
{

    const fs::path io_dir = fs::path(_cli.out) / (_w.name + ".io-store");
    fs::remove_all(io_dir);
    const std::string strategy = ad::serve::ServeOptions{}.strategy;
    std::vector<ad::serve::PlanKey> keys;
    {
        ad::serve::PlanStore store(io_dir.string());
        for (const NetPlan &net : _nets) {
            const int id = nextId();
            std::string bytes;
            timeLayer("plan_io.encode", id, [&] {
                bytes = ad::core::encodePlanResult(*net.winner);
            });
            add("plan_io.bytes", static_cast<double>(bytes.size()));
            std::optional<ad::core::PlanResult> decoded;
            timeLayer("plan_io.decode", id,
                      [&] { decoded = ad::core::decodePlanResult(bytes); });
            keys.push_back(keyFor(strategy, net));
            bool stored = false;
            timeLayer("store.put", id,
                      [&] { stored = store.put(keys.back(), *net.winner); });
            std::optional<ad::core::PlanResult> loaded;
            timeLayer("store.load", id,
                      [&] { loaded = store.load(keys.back()); });
            attempt();
            if (!stored || !decoded || !loaded ||
                !decoded->report.bitIdentical(net.winner->report) ||
                !loaded->report.bitIdentical(net.winner->report)) {
                fail(net.name + ": plan_io or store round trip differs");
            }
        }
    }

    {
        const int id = nextId();
        constexpr int kKeyRepeats = 20;
        std::vector<double> key_us;
        for (const NetPlan &net : _nets) {
            const double seconds = _spans.time("cache.key", id, [&] {
                for (int i = 0; i < kKeyRepeats; ++i)
                    (void)keyFor(strategy, net);
            });
            key_us.push_back(1e6 * seconds / kKeyRepeats);
        }
        add("cache.key_us", mean(key_us));

        ad::serve::PlanStore store(io_dir.string());
        ad::serve::PlanCache cache(_w.cacheBudget);
        cache.attachStore(&store);
        for (const auto &key : keys)
            (void)cache.lookup(key);
        std::vector<double> lookup_us;
        const auto &trace = _traces.front();
        for (const auto &request : trace.requests) {
            const std::string &name =
                trace.mix[static_cast<std::size_t>(request.net)];
            const auto at =
                std::find(_w.nets.begin(), _w.nets.end(), name);
            const auto &key = keys[static_cast<std::size_t>(
                std::distance(_w.nets.begin(), at))];
            lookup_us.push_back(
                1e6 * _spans.time("cache.lookup", id,
                                  [&] { (void)cache.lookup(key); }));
        }
        add("cache.lookup_us", mean(lookup_us));
    }
    fs::remove_all(io_dir);
}

void
Run::perLayer()
{
    tracedRound();

    double atoms = 0.0, noc = 0.0, mem = 0.0, util = 0.0;
    for (const NetPlan &net : _nets) {
        const auto &r = net.winner->report;
        atoms += static_cast<double>(r.launchedAtoms);
        noc += r.nocOverhead;
        mem += r.memOverhead;
        util += r.computeUtilization;
    }
    const auto n = static_cast<double>(_nets.size());
    add("sim.atoms_per_ms", atoms / _layer["sim.execute_ms"]);
    add("sim.noc_overhead", noc / n);
    add("sim.mem_overhead", mem / n);
    add("sim.compute_utilization", util / n);

    storageLayers();

    const ad::serve::PlanCacheStats cs = _replica->cache().stats();
    const auto lookups = static_cast<double>(cs.hits + cs.misses);
    add("cache.hit_ratio",
        lookups > 0 ? static_cast<double>(cs.hits - cs.storeHits) / lookups
                    : 0.0);
    add("cache.evictions", static_cast<double>(cs.evictions));
    add("store.hits", static_cast<double>(_replica->store()->stats().hits));
    add("store.corrupt", static_cast<double>(_storeCorrupt));

    add("serve.pass_ms", 1e3 * median(_passSeconds));
    add("serve.dispatch_us.p90", quantile(_dispatchUs, 0.9));
    add("serve.queue_wait_mcycles.mean", mean(_scored.wait));
    add("serve.queue_wait_mcycles.p99", quantile(_scored.wait, 0.99));
    add("serve.preemptions", static_cast<double>(_scored.preemptions));
    add("serve.downgrades", static_cast<double>(_scored.downgrades));
    add("serve.rejected", static_cast<double>(_scored.rejected));

    _spans.write(fs::path(_cli.out) / (_w.name + ".trace.json"));
}

std::vector<Metric>
Run::layerMetrics() const
{
    // Name, unit; the order README.md lists them in.
    static const std::vector<std::pair<const char *, const char *>> kLayers{
        {"graph.build_ms", "ms"},
        {"stream.generate_ms", "ms"},
        {"fallback.plan_ms", "ms"},
        {"catalog.build_ms", "ms"},
        {"catalog.candidates", "count"},
        {"sa.generate_ms", "ms"},
        {"sa.iterations", "count"},
        {"sa.accept_rate", "ratio"},
        {"engine.cost_calls", "count"},
        {"engine.cost_hit_ratio", "ratio"},
        {"dag.build_ms", "ms"},
        {"dag.atoms", "count"},
        {"sched.schedule_ms", "ms"},
        {"sched.estimate_ms", "ms"},
        {"sched.rounds", "count"},
        {"map.map_ms", "ms"},
        {"sim.execute_ms", "ms"},
        {"sim.atoms_per_ms", "1/ms"},
        {"pool.speedup", "x"},
        {"sim.noc_overhead", "ratio"},
        {"sim.mem_overhead", "ratio"},
        {"sim.compute_utilization", "ratio"},
        {"plan_io.encode_ms", "ms"},
        {"plan_io.decode_ms", "ms"},
        {"plan_io.bytes", "bytes"},
        {"store.load_ms", "ms"},
        {"store.put_ms", "ms"},
        {"store.hits", "count"},
        {"store.corrupt", "count"},
        {"cache.key_us", "us"},
        {"cache.lookup_us", "us"},
        {"cache.hit_ratio", "ratio"},
        {"cache.evictions", "count"},
        {"serve.pass_ms", "ms"},
        {"serve.dispatch_us.p90", "us"},
        {"serve.queue_wait_mcycles.mean", "Mcycles"},
        {"serve.queue_wait_mcycles.p99", "Mcycles"},
        {"serve.preemptions", "count"},
        {"serve.downgrades", "count"},
        {"serve.rejected", "count"},
        {"trace.overhead_frac", "ratio"},
    };
    std::vector<Metric> out;
    for (const auto &[name, unit] : kLayers) {
        const auto it = _layer.find(name);
        if (it == _layer.end()) {
            std::cerr << "adbench: per-layer metric " << name
                      << " is absent\n";
            continue;
        }
        out.push_back({name, it->second, unit});
    }
    return out;
}

void
Run::printNets() const
{
    std::cout << "adbench workload=" << _w.name << " seed=" << _cli.seed
              << " threads=" << _cli.threads << " seconds=" << _budget
              << (_cli.smoke ? " smoke" : "") << "\n";
    // The simulated serving metrics on the timed traces, which unlike
    // the scored ones follow --seed: the held-out-seed check.
    std::cout << "seeded seed=" << _cli.seed << " traces=" << _traces.size()
              << " lat_mean_mcycles="
              << ad::obs::formatMetricValue(mean(_seeded.latency))
              << " lat_p99_mcycles="
              << ad::obs::formatMetricValue(quantile(_seeded.latency, 0.99))
              << " serve_rps=" << ad::obs::formatMetricValue(_seeded.rps())
              << "\n";
    for (const NetPlan &net : _nets) {
        const auto &r = net.winner->report;
        std::cout << "net=" << net.name << " batch=" << _w.batch
                  << " view=" << _viewSystem.meshX << "x"
                  << _viewSystem.meshY << " cycles=" << r.totalCycles
                  << " energy_uj="
                  << ad::obs::formatMetricValue(r.totalEnergyPj() / 1e6)
                  << " plan_s.median="
                  << ad::obs::formatMetricValue(median(net.walls))
                  << " n=" << net.walls.size() << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli;
    try {
        cli = parseCli(argc, argv);
    } catch (const UsageError &e) {
        std::cerr << "adbench: " << e.what() << "\n" << kUsage;
        return 2;
    }
    try {
        Run run(workloadFor(cli.workload), cli);
        return run.execute();
    } catch (const std::exception &e) {
        std::cerr << "adbench: " << e.what() << "\n";
        return 1;
    }
}
