/**
 * @file
 * voltboot — command-line driver for the attack toolkit.
 *
 * Subcommands:
 *   platforms                         list the device database
 *   attack   [options]                run Volt Boot end to end
 *   coldboot [options]                run the cold-boot control
 *   survey   [--board NAME]           countermeasure survey
 *   retention [--target sram|dram]    survival surface
 *   sweep    [options]                parallel attack-sweep campaign
 *   report   trace|campaign FILE      analyse traces / sweep results
 *                                     (trace: --cpa runs the coupling
 *                                     key-recovery analyzer)
 *
 * Common options:
 *   --board pi3|pi4|imx53     target platform        (default pi4)
 *   --target dcache|icache|regs|iram|tlb|btb         (default dcache)
 *                             (coldboot: dcache|icache;
 *                             retention: sram|dram, default sram)
 *   --temp <celsius>          ambient temperature    (default 25)
 *   --off-ms <ms>             power-off interval     (default 500)
 *   --current <amps>          probe current limit    (default 3.0)
 *   --pad <label>             probe somewhere else (wrong-domain demo)
 *   --trace FILE              write a JSONL event trace
 *   --trace-chrome FILE       write a chrome://tracing / Perfetto trace
 *   --metrics FILE            write the wall-clock metrics snapshot
 *
 * Sweep options:
 *   --grid SPEC|FILE          sweep grid (see docs/CAMPAIGN.md)
 *   --attack NAME             override the grid's attack axis; without
 *                             --grid, sweeps the default grid
 *   --jobs N                  worker threads         (default: all cores)
 *   --seed S                  campaign seed          (default 0x5eed)
 *   --out FILE                write results as JSON
 *   --csv FILE                write results as CSV
 *   --timing                  include wall-clock section in the JSON
 *   --trace-dir DIR           one deterministic JSONL trace per trial
 *   --metrics FILE            write the engine metrics snapshot
 *   --metrics-port N          live /metrics | /healthz | /progress HTTP
 *                             endpoints while the sweep runs (0 picks an
 *                             ephemeral port, printed at startup)
 *   --heartbeat FILE          append one telemetry JSONL line per
 *                             sampling interval (crash-tolerant)
 *   --telemetry-interval S    sampler cadence (default 1 s)
 *
 * Trace files are deterministic (simulation-time stamps only); metrics
 * files carry wall-clock timings and are not. See docs/TRACING.md.
 *
 * Unknown flags and malformed numeric values are rejected with a usage
 * hint and a non-zero exit code.
 */

#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "report/campaign_json.hh"
#include "sidechannel/coupling.hh"
#include "report/invariants.hh"
#include "report/prometheus.hh"
#include "report/report.hh"
#include "report/heartbeat.hh"
#include "report/trace_reader.hh"
#include "telemetry/counters.hh"
#include "telemetry/http_server.hh"
#include "telemetry/monitor.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"
#include "core/analysis.hh"
#include "core/attack.hh"
#include "core/countermeasures.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"

using namespace voltboot;

namespace
{

/** User error that should additionally print the usage text. */
class UsageError : public FatalError
{
  public:
    using FatalError::FatalError;
};

template <typename... Args>
[[noreturn]] void
usageFatal(const Args &...args)
{
    std::ostringstream os;
    (os << ... << args);
    throw UsageError(os.str());
}

double
parseDouble(const std::string &flag, const std::string &text)
{
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size() ||
        !std::isfinite(value))
        usageFatal("malformed numeric value '", text, "' for ", flag);
    return value;
}

uint64_t
parseUint(const std::string &flag, const std::string &text)
{
    uint64_t value = 0;
    // Accept 0x-prefixed seeds.
    int base = 10;
    const char *begin = text.data();
    const char *end = text.data() + text.size();
    if (text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X')) {
        base = 16;
        begin += 2;
    }
    const auto [ptr, ec] = std::from_chars(begin, end, value, base);
    if (ec != std::errc() || ptr != end || begin == end)
        usageFatal("malformed numeric value '", text, "' for ", flag);
    return value;
}

/**
 * Write @p content to @p path, or to stdout when @p path is `-`.
 * File writes announce themselves; stdout stays clean so output can be
 * piped.
 */
void
writeOutput(const std::string &path, const std::string &content)
{
    if (path == "-") {
        std::cout << content;
        return;
    }
    CampaignResult::writeFile(path, content);
    std::cout << "wrote " << path << "\n";
}

struct Options
{
    std::string board = "pi4";
    std::string target; // empty = the subcommand's default
    double temp_c = 25.0;
    double off_ms = 500.0;
    double current = 3.0;
    std::string pad; // empty = the platform's documented attack pad

    std::string trace;        // JSONL trace output, empty = off
    std::string trace_chrome; // Chrome trace-event output, empty = off
    std::string metrics;      // wall-clock metrics snapshot, empty = off
};

Options
parse(int argc, char **argv, int first)
{
    Options o;
    for (int i = first; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageFatal("missing value for ", flag);
            return argv[++i];
        };
        if (flag == "--board")
            o.board = value();
        else if (flag == "--target")
            o.target = value();
        else if (flag == "--temp")
            o.temp_c = parseDouble(flag, value());
        else if (flag == "--off-ms")
            o.off_ms = parseDouble(flag, value());
        else if (flag == "--current")
            o.current = parseDouble(flag, value());
        else if (flag == "--pad")
            o.pad = value();
        else if (flag == "--trace")
            o.trace = value();
        else if (flag == "--trace-chrome")
            o.trace_chrome = value();
        else if (flag == "--metrics")
            o.metrics = value();
        else
            usageFatal("unknown option ", flag);
    }
    return o;
}

/**
 * Run @p body under this thread's trace scope when any of the
 * observability flags were given, then write the requested files. The
 * trace files carry only simulation-time stamps and are deterministic;
 * the metrics file (each attack step's wall time, from the telemetry
 * phase accumulators) is wall-clock derived and is not.
 */
int
withObservability(const Options &o, const std::function<int()> &body)
{
    if (o.trace.empty() && o.trace_chrome.empty() && o.metrics.empty())
        return body();

    trace::MemoryTraceSink sink;
    const telemetry::PhaseTimes phases_before = telemetry::tl_phase_times;
    int rc;
    {
        trace::Scope scope(sink);
        rc = body();
    }
    if (!o.trace.empty()) {
        CampaignResult::writeFile(o.trace, trace::toJsonl(sink.events()));
        std::cout << "wrote " << o.trace << " (" << sink.events().size()
                  << " events)\n";
    }
    if (!o.trace_chrome.empty()) {
        CampaignResult::writeFile(o.trace_chrome,
                                  trace::toChromeTrace(sink.events()));
        std::cout << "wrote " << o.trace_chrome << "\n";
    }
    if (!o.metrics.empty()) {
        trace::MetricsSnapshot metrics;
        telemetry::addPhaseHistograms(
            metrics, {telemetry::phaseSecondsSince(phases_before)});
        writeOutput(o.metrics, metrics.toJson() + "\n");
    }
    return rc;
}

int
cmdPlatforms()
{
    TextTable t({"name", "board", "SoC", "CPU", "attack pad",
                 "target memories"});
    t.addRow({"pi3", "Raspberry Pi 3", "BCM2837", "4x Cortex-A53",
              "PP58 @ 1.2V", "L1D, L1I, registers"});
    t.addRow({"pi4", "Raspberry Pi 4", "BCM2711", "4x Cortex-A72",
              "TP15 @ 0.8V", "L1D, L1I, registers"});
    t.addRow({"imx53", "i.MX53 QSB", "i.MX535", "1x Cortex-A8",
              "SH13 @ 1.3V", "iRAM (JTAG)"});
    std::cout << t.render();
    return 0;
}

int
cmdAttack(const Options &o)
{
    const std::string name = o.target.empty() ? "dcache" : o.target;
    const std::optional<TargetRam> target = enumFromName<TargetRam>(name);
    if (!target)
        usageFatal("unknown target '", name, "'");
    TrialSpec spec;
    spec.board = o.board;
    spec.target = *target;
    Soc soc(socConfigFor(o.board));
    soc.setAmbient(Temperature::celsius(o.temp_c));
    soc.powerOn();
    Rng rng;
    stageTrialVictim(soc, spec, rng);

    AttackConfig acfg;
    acfg.probe_max_current = Amp(o.current);
    acfg.off_time = Seconds::milliseconds(o.off_ms);
    VoltBootAttack attack(soc, acfg);

    AttackOutcome out = o.pad.empty() ? attack.attachProbe()
                                      : attack.attachProbeAt(o.pad);
    if (out.probe_attached)
        out = attack.powerCycleAndBoot();
    for (const auto &line : attack.trace())
        std::cout << line << "\n";
    if (!out.rebooted_into_attacker_code) {
        std::cout << "attack failed: " << out.failure_reason << "\n";
        return 1;
    }

    const MemoryImage dump = dumpTarget(attack, *target);

    std::cout << "\ndump: " << dump.sizeBytes()
              << " bytes, ones density "
              << TextTable::num(dump.onesDensity(), 4)
              << ", byte entropy "
              << TextTable::num(dump.byteEntropy(), 2) << " bits\n";
    std::cout << dump.hexdump(128);
    return 0;
}

int
cmdColdBoot(const Options &o)
{
    // Exactly the trial a one-point coldboot sweep runs at the default
    // campaign seed: same die, same staged victim, same scoring. Cold
    // boot reads back an L1 data array only.
    const std::string name = o.target.empty() ? "dcache" : o.target;
    const std::optional<TargetRam> target = enumFromName<TargetRam>(name);
    if (target != TargetRam::DCache && target != TargetRam::ICache)
        usageFatal("coldboot target must be dcache|icache, not '", name,
                   "'");
    TrialSpec spec;
    spec.board = o.board;
    spec.target = *target;
    spec.attack = AttackKind::ColdBoot;
    spec.temp_c = o.temp_c;
    spec.off_ms = o.off_ms;
    const TrialRecord rec = runTrial(spec, CampaignConfig{}.seed);
    if (rec.status != TrialStatus::Ok) {
        std::cout << rec.detail << "\n";
        return 1;
    }
    std::cout << "cold boot at " << o.temp_c << " degC, " << o.off_ms
              << " ms off\n";
    std::cout << "error vs stored pattern: "
              << TextTable::pct(rec.bit_error_rate)
              << " (50% = nothing retained)\n";
    return 0;
}

int
cmdSurvey(const Options &o)
{
    TextTable t({"defence", "attack", "recovered", "notes"});
    for (const auto &row : surveyCountermeasures(socConfigFor(o.board)))
        t.addRow({toString(row.defence),
                  row.attack_succeeded ? "SUCCEEDS" : "defeated",
                  TextTable::pct(row.recovered_fraction), row.notes});
    std::cout << t.render();
    return 0;
}

int
cmdRetention(const Options &o)
{
    const std::string tech = o.target.empty() ? "sram" : o.target;
    if (tech != "sram" && tech != "dram")
        usageFatal("unknown retention target '", tech, "' (sram|dram)");
    const RetentionConfig cfg = tech == "dram" ? RetentionConfig::dram()
                                               : RetentionConfig::sram6t();
    const RetentionModel model(cfg, CellRng(1, 1));
    std::vector<std::string> header{"off \\ degC"};
    for (double t : {-140.0, -110.0, -80.0, -40.0, 0.0, 25.0})
        header.push_back(TextTable::num(t, 0));
    TextTable table(header);
    for (double ms : {0.5, 2.0, 20.0, 200.0, 2000.0}) {
        std::vector<std::string> row{TextTable::num(ms, 1) + " ms"};
        for (double t : {-140.0, -110.0, -80.0, -40.0, 0.0, 25.0})
            row.push_back(TextTable::pct(
                model.expectedSurvival(Seconds::milliseconds(ms),
                                       Temperature::celsius(t)),
                1));
        table.addRow(row);
    }
    std::cout << tech << " expected survival:\n" << table.render();
    return 0;
}

struct SweepOptions
{
    std::string grid;
    std::string attack; // override / sole attack, empty = per-grid
    unsigned jobs = 0;  // 0 = hardware concurrency
    uint64_t seed = 0x5eed;
    std::string out_json;
    std::string out_csv;
    bool timing = false;
    bool quiet = false;
    bool list_axes = false; // print the axis table and exit
    std::string trace_dir; // per-trial JSONL traces, empty = off
    std::string metrics;   // engine metrics snapshot, empty = off
    int metrics_port = -1; // /metrics HTTP port; -1 = off, 0 = ephemeral
    std::string heartbeat; // heartbeat JSONL stream, empty = off
    double telemetry_interval_s = 1.0; // sampler cadence
};

SweepOptions
parseSweep(int argc, char **argv, int first)
{
    SweepOptions o;
    for (int i = first; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageFatal("missing value for ", flag);
            return argv[++i];
        };
        if (flag == "--grid")
            o.grid = value();
        else if (flag == "--attack")
            o.attack = value();
        else if (flag == "--jobs") {
            const uint64_t jobs = parseUint(flag, value());
            if (jobs > std::numeric_limits<unsigned>::max())
                usageFatal("--jobs out of range: ", jobs);
            o.jobs = static_cast<unsigned>(jobs);
        } else if (flag == "--seed")
            o.seed = parseUint(flag, value());
        else if (flag == "--out")
            o.out_json = value();
        else if (flag == "--csv")
            o.out_csv = value();
        else if (flag == "--timing")
            o.timing = true;
        else if (flag == "--quiet")
            o.quiet = true;
        else if (flag == "--trace-dir")
            o.trace_dir = value();
        else if (flag == "--metrics")
            o.metrics = value();
        else if (flag == "--metrics-port") {
            const uint64_t port = parseUint(flag, value());
            if (port > 65535)
                usageFatal("--metrics-port out of range: ", port);
            o.metrics_port = static_cast<int>(port);
        } else if (flag == "--heartbeat")
            o.heartbeat = value();
        else if (flag == "--telemetry-interval") {
            o.telemetry_interval_s = parseDouble(flag, value());
            if (o.telemetry_interval_s <= 0.0)
                usageFatal("--telemetry-interval must be positive");
        } else if (flag == "--list-axes")
            o.list_axes = true;
        else
            usageFatal("unknown option ", flag);
    }
    if (o.grid.empty() && o.attack.empty() && !o.list_axes)
        usageFatal("sweep requires --grid SPEC (or --grid FILE, or "
                   "--attack NAME for the default grid)");
    return o;
}

/** The campaign the SIGINT/SIGTERM handler aborts, when one is live. */
std::atomic<Campaign *> g_signal_campaign{nullptr};

/**
 * First ^C: request a graceful abort — remaining trials are marked
 * skipped, the run unwinds normally, and the tail code still flushes
 * metrics and the final heartbeat. requestAbort() is one relaxed
 * atomic store, so this is async-signal-safe. A second ^C hits the
 * default handler (restored after the run) and force-kills.
 */
void
abortSignalHandler(int)
{
    if (Campaign *campaign =
            g_signal_campaign.load(std::memory_order_relaxed))
        campaign->requestAbort();
}

/** Axes of @p grid that actually vary, slowest-varying first (the
 * SweepGrid::at() decode order), for /progress completion. */
std::vector<telemetry::AxisDesc>
monitorAxes(const SweepGrid &grid)
{
    std::vector<telemetry::AxisDesc> axes;
    for (size_t a = 0; a < std::size(kGridAxes); ++a)
        if (grid.axisSize(a) > 1)
            axes.push_back({kGridAxes[a].key, grid.axisSize(a)});
    return axes;
}

int
cmdSweep(const SweepOptions &o)
{
    if (o.list_axes) {
        std::cout << SweepGrid::axesHelp();
        return 0;
    }
    // --grid takes an inline spec or the name of a spec file; with
    // --attack alone the default grid is used.
    SweepGrid grid;
    if (!o.grid.empty()) {
        std::string spec = o.grid;
        if (std::ifstream file(o.grid); file) {
            std::ostringstream content;
            content << file.rdbuf();
            spec = content.str();
        }
        grid = SweepGrid::parse(spec);
    }
    if (!o.attack.empty())
        grid.set("attack", o.attack);

    CampaignConfig cfg;
    cfg.jobs = o.jobs;
    cfg.seed = o.seed;
    cfg.trace_dir = o.trace_dir;

    // Live telemetry: sampler + optional heartbeat stream + optional
    // /metrics endpoint + progress. Counters are process-wide, so start
    // from zero for this sweep.
    telemetry::resetCounters();
    telemetry::MonitorConfig mcfg;
    mcfg.interval_s = o.telemetry_interval_s;
    mcfg.total_trials = grid.size();
    mcfg.campaign_seed = o.seed;
    mcfg.grid_spec = grid.describe();
    mcfg.axes = monitorAxes(grid);
    mcfg.heartbeat_path = o.heartbeat;
    // Each sample prints the progress line; the heartbeat stream
    // carries the same done/rate/ETA figures.
    if (!o.quiet) {
        mcfg.on_sample = [total = mcfg.total_trials](
                             const telemetry::TelemetrySnapshot &snap) {
            const uint64_t done =
                snap.totals.get(telemetry::Counter::TrialsCompleted) +
                snap.totals.get(telemetry::Counter::TrialsSkipped);
            std::fprintf(stderr,
                         "\r%llu/%llu trials  %.1f trials/s  ETA %.0fs ",
                         static_cast<unsigned long long>(done),
                         static_cast<unsigned long long>(total),
                         snap.trials_per_sec_ewma, snap.eta_s);
            if (snap.final_sample)
                std::fprintf(stderr, "\n");
        };
    }
    telemetry::CampaignMonitor monitor(mcfg);
    if (o.metrics_port >= 0 || !o.heartbeat.empty() || mcfg.on_sample)
        monitor.start();

    std::unique_ptr<telemetry::HttpServer> server;
    if (o.metrics_port >= 0) {
        server = std::make_unique<telemetry::HttpServer>(
            static_cast<uint16_t>(o.metrics_port),
            [&monitor](const std::string &path) {
                telemetry::HttpResponse resp;
                if (path == "/metrics") {
                    resp.content_type =
                        "text/plain; version=0.0.4; charset=utf-8";
                    resp.body =
                        report::toPrometheus(monitor.metricsSnapshot());
                } else if (path == "/healthz") {
                    resp.body = "ok\n";
                } else if (path == "/progress") {
                    resp.content_type = "application/json";
                    resp.body = monitor.progressJson();
                } else {
                    resp.status = 404;
                    resp.body = "unknown endpoint " + path + "\n";
                }
                return resp;
            });
        std::cout << "telemetry: serving /metrics /healthz /progress "
                     "on port "
                  << server->port() << "\n";
    }

    Campaign campaign(std::move(grid), std::move(cfg));
    g_signal_campaign.store(&campaign, std::memory_order_relaxed);
    std::signal(SIGINT, abortSignalHandler);
    std::signal(SIGTERM, abortSignalHandler);
    const CampaignResult result = campaign.run();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_signal_campaign.store(nullptr, std::memory_order_relaxed);

    // Final sample + heartbeat (flagged `"final": true`) before any
    // result files are written, so a consumer tailing the stream sees
    // the end of the run as soon as the campaign is over.
    monitor.stop();
    if (server)
        server->stop();
    const CampaignSummary s = result.summary();

    TextTable t({"trials", "ok", "attack failed", "errors", "skipped",
                 "mean accuracy", "trials/s"});
    t.addRow({std::to_string(s.trials), std::to_string(s.ok),
              std::to_string(s.attack_failed), std::to_string(s.errors),
              std::to_string(s.skipped), TextTable::pct(s.accuracy.mean()),
              TextTable::num(result.trialsPerSecond(), 1)});
    std::cout << t.render();
    if (s.keys_planted)
        std::cout << "keys: " << s.keys_planted << " planted, "
                  << s.keys_found << " found, " << s.keys_exact
                  << " exact\n";
    for (const AttackFamily &family : kAttackFamilies)
        if (const auto &count = s.family(family.kind);
            family.label && count.trials)
            std::cout << family.label << ": " << count.trials
                      << " trials, " << count.successes << " "
                      << family.successes_label << "\n";

    if (!o.out_json.empty()) {
        CampaignResult::writeFile(o.out_json, result.toJson(o.timing));
        std::cout << "wrote " << o.out_json << "\n";
    }
    if (!o.out_csv.empty()) {
        CampaignResult::writeFile(o.out_csv, result.toCsv());
        std::cout << "wrote " << o.out_csv << "\n";
    }
    if (!o.trace_dir.empty())
        std::cout << "wrote " << s.trials << " trial traces to "
                  << o.trace_dir << "\n";
    if (!o.metrics.empty())
        writeOutput(o.metrics, result.metrics.toJson() + "\n");
    return s.errors || s.skipped ? 1 : 0;
}

struct ReportOptions
{
    std::string mode;  // "trace" | "campaign"
    std::string input; // JSONL trace or sweep JSON
    std::string out = "-";
    std::string trace_dir; // campaign only
    std::string heartbeat; // campaign only: join a heartbeat stream
    std::string format = "md"; // md | prom (campaign only)
    bool check = false;
    bool cpa = false; // trace only: run the CPA key-recovery analyzer
    double cpa_window_ns = 0.0; // 0 = correlate over the full block
};

ReportOptions
parseReport(int argc, char **argv, int first)
{
    ReportOptions o;
    std::vector<std::string> positional;
    for (int i = first; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageFatal("missing value for ", flag);
            return argv[++i];
        };
        if (flag == "--out")
            o.out = value();
        else if (flag == "--trace-dir")
            o.trace_dir = value();
        else if (flag == "--heartbeat")
            o.heartbeat = value();
        else if (flag == "--format")
            o.format = value();
        else if (flag == "--check")
            o.check = true;
        else if (flag == "--cpa")
            o.cpa = true;
        else if (flag == "--cpa-window-ns")
            o.cpa_window_ns = parseDouble(flag, value());
        else if (!flag.empty() && flag[0] == '-' && flag != "-")
            usageFatal("unknown option ", flag);
        else
            positional.push_back(flag);
    }
    if (positional.size() != 2)
        usageFatal("report requires a mode and an input file: "
                   "report trace FILE.jsonl | report campaign "
                   "SWEEP.json");
    o.mode = positional[0];
    o.input = positional[1];
    if (o.mode != "trace" && o.mode != "campaign")
        usageFatal("unknown report mode '", o.mode,
                   "' (expected trace or campaign)");
    if (o.format != "md" && o.format != "prom")
        usageFatal("unknown report format '", o.format,
                   "' (expected md or prom)");
    if (o.mode == "trace") {
        if (!o.trace_dir.empty())
            usageFatal("--trace-dir is only valid for report campaign");
        if (!o.heartbeat.empty())
            usageFatal("--heartbeat is only valid for report campaign");
        if (o.format == "prom")
            usageFatal("--format prom is only valid for report "
                       "campaign");
    } else if (o.cpa || o.cpa_window_ns != 0.0) {
        usageFatal("--cpa/--cpa-window-ns are only valid for report "
                   "trace");
    }
    return o;
}

int
cmdReport(const ReportOptions &o)
{
    if (o.mode == "trace") {
        const std::vector<trace::TraceEvent> events =
            report::readTraceFile(o.input);
        if (o.cpa) {
            sidechannel::CpaOptions copts;
            copts.window_ns = o.cpa_window_ns;
            const sidechannel::CpaResult cpa =
                sidechannel::analyzeCoupling(events, copts);
            writeOutput(o.out, sidechannel::renderCpaMarkdown(cpa));
            if (o.check) {
                const auto violations =
                    report::checkTraceInvariants(events);
                if (!violations.empty()) {
                    std::cerr << "trace invariant check FAILED:\n"
                              << report::renderViolations(violations);
                    return 1;
                }
            }
            // No AES blocks in the trace means the analyzer was
            // pointed at the wrong capture, which deserves a non-zero
            // exit even though the markdown explains it.
            return cpa.blocks == 0 ? 1 : 0;
        }
        const report::TraceReport rep =
            report::buildTraceReport(events, o.input, o.check);
        writeOutput(o.out, rep.markdown);
        if (!rep.violations.empty()) {
            std::cerr << "trace invariant check FAILED:\n"
                      << report::renderViolations(rep.violations);
            return 1;
        }
        return 0;
    }

    const report::SweepDoc sweep = report::readSweepFile(o.input);

    report::CampaignReportOptions opts;
    opts.trace_dir = o.trace_dir;
    opts.check = o.check;
    opts.heartbeat_path = o.heartbeat;

    if (o.format == "prom") {
        if (!sweep.has_timing || sweep.metrics.empty())
            fatal("sweep '", o.input,
                  "' carries no metrics snapshot; rerun the sweep "
                  "with --timing");
        writeOutput(o.out, report::toPrometheus(sweep.metrics));
        return 0;
    }

    const report::CampaignReport rep =
        report::buildCampaignReport(sweep, opts);
    writeOutput(o.out, rep.markdown);
    if (!rep.problems.empty()) {
        std::cerr << "campaign report found "
                  << rep.problems.size() << " problem(s):\n";
        for (const std::string &p : rep.problems)
            std::cerr << "  " << p << "\n";
        return 1;
    }
    return 0;
}

void
usage(std::ostream &out)
{
    out << "usage: voltboot "
           "<platforms|attack|coldboot|survey|retention|sweep|report>"
           " [options]\n"
           "  attack   --board pi3|pi4|imx53 --target "
           "dcache|icache|regs|iram|tlb|btb\n"
           "           [--temp C] [--off-ms MS] [--current A] [--pad "
           "LABEL]\n"
           "           [--trace FILE.jsonl] [--trace-chrome FILE.json] "
           "[--metrics FILE]\n"
           "  coldboot --board ... [--target dcache|icache] --temp C "
           "--off-ms MS\n"
           "           [--trace ...]\n"
           "  survey   [--board ...]\n"
           "  retention [--target sram|dram]\n"
           "  sweep    --grid SPEC|FILE [--attack NAME] [--jobs N] "
           "[--seed S]\n"
           "           [--out results.json] [--csv results.csv] "
           "[--timing] [--quiet]\n"
           "           [--trace-dir DIR] [--metrics FILE] "
           "[--list-axes]\n"
           "           [--metrics-port N] [--heartbeat FILE.jsonl]\n"
           "           [--telemetry-interval SECONDS]\n"
           "           --metrics-port serves live /metrics /healthz "
           "/progress\n"
           "           over HTTP while the sweep runs (0 = ephemeral "
           "port);\n"
           "           --heartbeat appends one telemetry JSONL line "
           "per\n"
           "           interval (crash-tolerant; see "
           "docs/TELEMETRY.md).\n"
           "           grid SPEC example: "
           "\"board=pi4;attack=coldboot;temp=-80,-40;off-ms=5,50;"
           "seeds=8\"\n"
           "           --attack overrides the grid's attack axis "
           "(voltboot,\n"
           "           coldboot, glitch, static-extract, "
           "voltage-coupling,\n"
           "           key-recovery) and\n"
           "           may be used without --grid for the default "
           "grid.\n"
           "           --list-axes prints every grid axis (key, unit, "
           "default,\n"
           "           accepted values) and exits.\n"
           "  report   trace FILE.jsonl [--check] [--cpa] "
           "[--cpa-window-ns N]\n"
           "           [--out FILE|-]\n"
           "  report   campaign SWEEP.json [--trace-dir DIR]\n"
           "           [--heartbeat FILE.jsonl] [--format md|prom] "
           "[--check]\n"
           "           [--out FILE|-]\n"
           "  `-` as an output path (--out, --metrics) writes to "
           "stdout.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(std::cout);
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "platforms")
            return cmdPlatforms();
        if (cmd == "sweep")
            return cmdSweep(parseSweep(argc, argv, 2));
        if (cmd == "report")
            return cmdReport(parseReport(argc, argv, 2));
        const Options o = parse(argc, argv, 2);
        if (cmd == "attack")
            return withObservability(o, [&] { return cmdAttack(o); });
        if (cmd == "coldboot")
            return withObservability(o, [&] { return cmdColdBoot(o); });
        if (cmd == "survey")
            return cmdSurvey(o);
        if (cmd == "retention")
            return cmdRetention(o);
        std::cerr << "error: unknown subcommand '" << cmd << "'\n";
        usage(std::cerr);
        return 2;
    } catch (const UsageError &e) {
        std::cerr << "error: " << e.what() << "\n";
        usage(std::cerr);
        return 2;
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
