/**
 * @file
 * Observability-layer tests: Arg/JSON rendering, sink installation and
 * nesting, event ordering, JSONL and Chrome trace-event serialization,
 * the off-path being a no-op, exact metric summaries, and the
 * big determinism contract — a traced attack emits the documented
 * events and a traced campaign produces byte-identical per-trial files
 * at any job count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/sweep_grid.hh"
#include "campaign/trial_runner.hh"
#include "core/attack.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"
#include "telemetry/counters.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

using namespace voltboot;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

// --- JSON primitives -------------------------------------------------

TEST(TraceJson, NumberIsShortestRoundTrip)
{
    EXPECT_EQ(trace::jsonNumber(0.5), "0.5");
    EXPECT_EQ(trace::jsonNumber(0.0), "0");
    EXPECT_EQ(trace::jsonNumber(-3.25), "-3.25");
}

TEST(TraceJson, NonFiniteRendersNull)
{
    EXPECT_EQ(trace::jsonNumber(std::nan("")), "null");
    EXPECT_EQ(trace::jsonNumber(INFINITY), "null");
}

TEST(TraceJson, QuoteEscapes)
{
    EXPECT_EQ(trace::jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(trace::jsonQuote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
}

TEST(TraceJson, ArgRendersByType)
{
    EXPECT_EQ(trace::Arg("k", "text").json, "\"text\"");
    EXPECT_EQ(trace::Arg("k", std::string("s")).json, "\"s\"");
    EXPECT_EQ(trace::Arg("k", true).json, "true");
    EXPECT_EQ(trace::Arg("k", false).json, "false");
    EXPECT_EQ(trace::Arg("k", 42).json, "42");
    EXPECT_EQ(trace::Arg("k", uint64_t{7}).json, "7");
    EXPECT_EQ(trace::Arg("k", 1.25).json, "1.25");
}

// --- off path --------------------------------------------------------

TEST(TraceOff, DisabledByDefaultAndEmitIsNoOp)
{
    EXPECT_FALSE(trace::enabled());
    trace::emit({});                   // must not crash
    trace::instant("core", "nothing"); // must not crash
    trace::Span span("core", "inert");
    span.arg({"k", 1});
    span.end();
}

// --- scopes, ordering, spans -----------------------------------------

TEST(TraceScope, InstallsResetsClockAndRestores)
{
    trace::MemoryTraceSink outer;
    trace::MemoryTraceSink inner;
    {
        trace::Scope a(outer);
        EXPECT_TRUE(trace::enabled());
        trace::setSimTime(Seconds::milliseconds(5));
        {
            trace::Scope b(inner);
            // A new scope starts its own timeline.
            EXPECT_EQ(trace::simTime().seconds(), 0.0);
            trace::instant("core", "in_inner");
        }
        // The outer clock and sink come back.
        EXPECT_EQ(trace::simTime().seconds(), 0.005);
        trace::instant("core", "in_outer");
    }
    EXPECT_FALSE(trace::enabled());
    ASSERT_EQ(inner.events().size(), 1u);
    EXPECT_EQ(inner.events()[0].name, "in_inner");
    ASSERT_EQ(outer.events().size(), 1u);
    EXPECT_EQ(outer.events()[0].name, "in_outer");
    EXPECT_EQ(outer.events()[0].ts.seconds(), 0.005);
}

TEST(TraceScope, EventsArriveInEmissionOrder)
{
    trace::MemoryTraceSink sink;
    trace::Scope scope(sink);
    for (int i = 0; i < 5; ++i) {
        trace::setSimTime(Seconds::milliseconds(i));
        trace::instant("core", "e" + std::to_string(i));
    }
    ASSERT_EQ(sink.events().size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(sink.events()[i].name, "e" + std::to_string(i));
        EXPECT_DOUBLE_EQ(sink.events()[i].ts.seconds(), i * 1e-3);
    }
}

TEST(TraceSpan, CapturesStartDurationAndArgs)
{
    trace::MemoryTraceSink sink;
    trace::Scope scope(sink);
    trace::setSimTime(Seconds::milliseconds(1));
    {
        trace::Span span("core", "work");
        span.arg({"bytes", 512});
        trace::setSimTime(Seconds::milliseconds(3));
    }
    ASSERT_EQ(sink.events().size(), 1u);
    const trace::TraceEvent &e = sink.events()[0];
    EXPECT_EQ(e.phase, trace::Phase::Complete);
    EXPECT_DOUBLE_EQ(e.ts.seconds(), 1e-3);
    EXPECT_DOUBLE_EQ(e.dur.seconds(), 2e-3);
    ASSERT_EQ(e.args.size(), 1u);
    EXPECT_EQ(e.args[0].key, "bytes");
    EXPECT_EQ(e.args[0].json, "512");
}

TEST(TraceSpan, EndIsIdempotent)
{
    trace::MemoryTraceSink sink;
    trace::Scope scope(sink);
    trace::Span span("core", "once");
    span.end();
    span.end();
    EXPECT_EQ(sink.events().size(), 1u);
}

// --- serializers -----------------------------------------------------

TEST(TraceSerialize, JsonlLineFormat)
{
    trace::TraceEvent e;
    e.phase = trace::Phase::Instant;
    e.category = "power";
    e.name = "probe_attach";
    e.ts = Seconds::milliseconds(2);
    e.args.push_back({"domain", "VDD_CORE"});
    e.args.push_back({"voltage_v", 0.8});
    EXPECT_EQ(trace::toJsonlLine(e),
              "{\"ts_us\": 2000, \"cat\": \"power\", \"ph\": \"i\", "
              "\"name\": \"probe_attach\", \"args\": "
              "{\"domain\": \"VDD_CORE\", \"voltage_v\": 0.8}}");
}

TEST(TraceSerialize, JsonlDocumentHasOneLinePerEvent)
{
    trace::MemoryTraceSink sink;
    {
        trace::Scope scope(sink);
        trace::instant("core", "a");
        trace::instant("core", "b");
        trace::instant("core", "c");
    }
    const std::string doc = trace::toJsonl(sink.events());
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '\n'), 3);
    EXPECT_EQ(doc.back(), '\n');
}

TEST(TraceSerialize, ChromeTraceFormat)
{
    trace::MemoryTraceSink sink;
    {
        trace::Scope scope(sink);
        trace::instant("power", "probe_attach");
        trace::Span span("core", "attack.step3_power_cycle");
        trace::setSimTime(Seconds::milliseconds(500));
    }
    const std::string doc = trace::toChromeTrace(sink.events());
    EXPECT_NE(doc.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(doc.find("\"s\": \"p\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"dur\": 500000"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"pid\": 0"), std::string::npos);
}

TEST(TraceSerialize, JsonlFileSinkMatchesSerializer)
{
    const std::string path =
        (std::filesystem::path(testing::TempDir()) / "trace_sink.jsonl")
            .string();
    trace::MemoryTraceSink memory;
    {
        trace::JsonlFileSink file(path);
        trace::Scope scope(file);
        for (const trace::TraceEvent &e :
             {trace::TraceEvent{trace::Phase::Instant, "sram",
                                "sram_state", Seconds::milliseconds(1),
                                Seconds{0.0},
                                {{"array", "l1d"}, {"supply_v", 0.0}}},
              trace::TraceEvent{trace::Phase::Instant, "power",
                                "domain_power_up",
                                Seconds::milliseconds(2), Seconds{0.0},
                                {}}}) {
            memory.record(e);
            trace::emit(e);
        }
    }
    EXPECT_EQ(readFile(path), trace::toJsonl(memory.events()));
}

// --- metrics ---------------------------------------------------------

TEST(Metrics, CountersGaugesHistograms)
{
    trace::MetricsSnapshot s;
    s.counters["runs"] = 3.0;
    s.gauges["jobs"] = 2.0;
    s.histograms["wall_s"] = trace::summarize({5.0, 1.0, 3.0, 2.0, 4.0});

    const trace::HistogramSummary &h = s.histograms.at("wall_s");
    EXPECT_EQ(h.count, 5u);
    EXPECT_DOUBLE_EQ(h.mean, 3.0);
    EXPECT_DOUBLE_EQ(h.min, 1.0);
    EXPECT_DOUBLE_EQ(h.max, 5.0);
    EXPECT_DOUBLE_EQ(h.p50, 3.0);
    const std::string json = s.toJson();
    EXPECT_NE(json.find("\"runs\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"jobs\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"wall_s\": {\"count\": 5"), std::string::npos);
}

TEST(Metrics, SnapshotIsObservationOrderIndependent)
{
    const std::vector<double> samples = {0.25, 4.0, 1.5, 0.75, 2.0};
    trace::MetricsSnapshot a, b;
    a.histograms["h"] = trace::summarize(samples);
    b.histograms["h"] = trace::summarize(
        std::vector<double>(samples.rbegin(), samples.rend()));
    EXPECT_EQ(a.toJson(), b.toJson());
}

TEST(Metrics, EmptySnapshotReportsEmpty)
{
    trace::MetricsSnapshot m;
    EXPECT_TRUE(m.empty());
    m.counters["c"] = 1.0;
    EXPECT_FALSE(m.empty());
}

// --- summarize: exact nearest-rank percentiles -----------------------

TEST(Summarize, SingleSample)
{
    const trace::HistogramSummary h = trace::summarize({0.125});
    EXPECT_EQ(h.count, 1u);
    EXPECT_DOUBLE_EQ(h.mean, 0.125);
    EXPECT_DOUBLE_EQ(h.min, 0.125);
    EXPECT_DOUBLE_EQ(h.max, 0.125);
    EXPECT_DOUBLE_EQ(h.p50, 0.125);
    EXPECT_DOUBLE_EQ(h.p90, 0.125);
    EXPECT_DOUBLE_EQ(h.p99, 0.125);
    EXPECT_EQ(trace::summarize({}).count, 0u);
}

TEST(Summarize, HandCheckedVector)
{
    // Sorted: 1 2 3 5 8 13 21 34 55 89 (n = 10). Nearest rank takes the
    // sample at floor(q * n): p50 -> [5] = 13, p90 -> [9] = 89,
    // p99 -> [9] = 89.
    const trace::HistogramSummary h =
        trace::summarize({34, 1, 89, 3, 13, 2, 55, 8, 21, 5});
    EXPECT_EQ(h.count, 10u);
    EXPECT_DOUBLE_EQ(h.mean, 23.1);
    EXPECT_DOUBLE_EQ(h.min, 1.0);
    EXPECT_DOUBLE_EQ(h.max, 89.0);
    EXPECT_DOUBLE_EQ(h.p50, 13.0);
    EXPECT_DOUBLE_EQ(h.p90, 89.0);
    EXPECT_DOUBLE_EQ(h.p99, 89.0);
}

TEST(Summarize, ExactPastTheOldSampleCap)
{
    // 10 000 distinct values, well past the 4096 samples the removed
    // reservoir retained, fed in a stride-permuted order: every
    // percentile is the exact order statistic.
    const size_t n = 10000;
    const size_t stride = 7919; // prime, coprime to n
    std::vector<double> samples;
    for (size_t i = 0; i < n; ++i)
        samples.push_back(static_cast<double>(i * stride % n));
    const trace::HistogramSummary h = trace::summarize(samples);
    EXPECT_EQ(h.count, n);
    EXPECT_DOUBLE_EQ(h.min, 0.0);
    EXPECT_DOUBLE_EQ(h.max, static_cast<double>(n - 1));
    EXPECT_DOUBLE_EQ(h.mean, static_cast<double>(n - 1) / 2.0);
    EXPECT_DOUBLE_EQ(h.p50, 5000.0);
    EXPECT_DOUBLE_EQ(h.p90, 9000.0);
    EXPECT_DOUBLE_EQ(h.p99, 9900.0);
}

// --- the attack stack emits the documented events --------------------

TEST(TraceIntegration, AttackRunEmitsLayerEvents)
{
    trace::MemoryTraceSink sink;
    const telemetry::PhaseTimes phases_before = telemetry::tl_phase_times;
    {
        trace::Scope scope(sink);
        Soc soc(socConfigFor("pi4"));
        soc.powerOn();
        VoltBootAttack attack(soc);
        const AttackOutcome out = attack.execute();
        ASSERT_TRUE(out.rebooted_into_attacker_code)
            << out.failure_reason;
        attack.dumpL1(0, L1Ram::DData);
    }

    auto has = [&](const char *cat, const std::string &name) {
        for (const trace::TraceEvent &e : sink.events())
            if (std::string(e.category) == cat && e.name == name)
                return true;
        return false;
    };
    EXPECT_TRUE(has("power", "probe_attach"));
    EXPECT_TRUE(has("power", "domain_power_down"));
    EXPECT_TRUE(has("power", "domain_power_up"));
    EXPECT_TRUE(has("sram", "sram_state"));
    EXPECT_TRUE(has("soc", "boot_rom"));
    EXPECT_TRUE(has("core", "attack.steps12_probe"));
    EXPECT_TRUE(has("core", "attack.step3_power_cycle"));
    EXPECT_TRUE(has("core", "attack.step4_extract"));

    // Timestamps never run backwards within a category's instants.
    double last = 0.0;
    for (const trace::TraceEvent &e : sink.events()) {
        if (e.phase != trace::Phase::Instant)
            continue;
        EXPECT_GE(e.ts.seconds(), last);
        last = e.ts.seconds();
    }

    // Wall-clock step costs landed in the telemetry phase
    // accumulators, not the trace.
    const auto phase_wall_s = telemetry::phaseSecondsSince(phases_before);
    EXPECT_GT(phase_wall_s[static_cast<unsigned>(
                  telemetry::Phase::Step3PowerCycle)],
              0.0);
    EXPECT_EQ(phase_wall_s[static_cast<unsigned>(
                  telemetry::Phase::ColdBootPowerCycle)],
              0.0);

    // The same events load as a Chrome trace document.
    const std::string chrome = trace::toChromeTrace(sink.events());
    EXPECT_NE(chrome.find("\"traceEvents\": ["), std::string::npos);
}

// --- campaign traces are schedule-independent ------------------------

/** Cheap deterministic runner that also emits a per-trial trace; the
 * event content is a pure function of (seed, index), like runTrial. */
TrialRecord
tracedFakeTrial(const TrialSpec &spec, uint64_t seed)
{
    Rng rng(deriveTrialSeed(seed, spec.index));
    TrialRecord rec;
    rec.spec = spec;
    rec.chip_seed = deriveChipSeed(seed, spec.seed_index);
    rec.status = TrialStatus::Ok;
    rec.booted = true;
    rec.accuracy = 1.0 - rng.uniform() * 0.5;

    trace::setSimTime(Seconds::milliseconds(1));
    trace::instant("power", "domain_power_down",
                   {{"domain", "VDD_CORE"}});
    trace::setSimTime(Seconds::milliseconds(1 + spec.off_ms));
    trace::instant("sram", "sram_decay",
                   {{"cells_flipped", rng.uniform()}});
    return rec;
}

TEST(TraceIntegration, CampaignTracesAreByteIdenticalAcrossJobs)
{
    const std::string spec =
        "board=pi4;attack=voltboot;off-ms=5,50;temp=25,-40;seeds=2";

    auto runWithJobs = [&](unsigned jobs) {
        const std::string dir =
            (std::filesystem::path(testing::TempDir()) /
             ("trace_jobs_" + std::to_string(jobs)))
                .string();
        CampaignConfig cfg;
        cfg.jobs = jobs;
        cfg.runner = tracedFakeTrial;
        cfg.trace_dir = dir;
        Campaign campaign(SweepGrid::parse(spec), std::move(cfg));
        campaign.run();
        return dir;
    };

    const std::string dir1 = runWithJobs(1);
    const std::string dir4 = runWithJobs(4);

    const uint64_t trials = SweepGrid::parse(spec).size();
    ASSERT_GT(trials, 1u);
    for (uint64_t i = 0; i < trials; ++i) {
        char name[32];
        std::snprintf(name, sizeof(name), "trial_%06llu.jsonl",
                      static_cast<unsigned long long>(i));
        const std::string a =
            readFile((std::filesystem::path(dir1) / name).string());
        const std::string b =
            readFile((std::filesystem::path(dir4) / name).string());
        EXPECT_EQ(a, b) << "trial " << i
                        << " trace differs across job counts";
        // Every trial file carries its runner events plus the engine's
        // closing campaign/trial span.
        EXPECT_NE(a.find("\"cat\": \"campaign\""), std::string::npos);
        EXPECT_NE(a.find("\"name\": \"trial\""), std::string::npos);
        EXPECT_NE(a.find("domain_power_down"), std::string::npos);
    }
}

/** 64-bit FNV-1a: a compact pin for traces too large for golden files. */
uint64_t
fnv1a64(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** One single-trial grid and its per-trial JSONL, pinned. */
struct TracePin
{
    const char *grid;
    size_t bytes;
    uint64_t fnv1a;
};

/** Run each pin's trial through the engine's --trace-dir path and
 * compare the trial file's size and digest. */
void
expectPinnedTraces(std::span<const TracePin> pins)
{
    for (const TracePin &pin : pins) {
        SCOPED_TRACE(pin.grid);
        const std::string dir =
            (std::filesystem::path(testing::TempDir()) / "trace_pins")
                .string();
        std::filesystem::remove_all(dir);
        CampaignConfig cfg;
        cfg.jobs = 1;
        cfg.trace_dir = dir;
        Campaign(SweepGrid::parse(pin.grid), std::move(cfg)).run();
        const std::string bytes = readFile(
            (std::filesystem::path(dir) / "trial_000000.jsonl").string());
        EXPECT_EQ(bytes.size(), pin.bytes);
        EXPECT_EQ(fnv1a64(bytes), pin.fnv1a)
            << std::hex << "actual 0x" << fnv1a64(bytes);
    }
}

TEST(TraceIntegration, ExcursionTrialTraceBytesArePinned)
{
    // One real pi4 trial per rail-excursion family, at the sweet spots
    // of docs/ATTACKS.md, written by the engine's --trace-dir path.
    const TracePin pins[] = {
        {"board=pi4;attack=glitch;glitch-off-ns=109;glitch-width-ns=2;"
         "glitch-depth=0.5;seeds=1",
         12802, 0x19a12195bbde1b58ULL},
        {"board=pi4;attack=static-extract;undervolt-depth=0.45;"
         "hold-ns=400;seeds=1",
         66092, 0x83821a603ed5ec0eULL},
        {"board=pi4;attack=voltage-coupling;seeds=1", 97253,
         0x50f3ad3862d42258ULL},
    };
    expectPinnedTraces(pins);
}

TEST(TraceIntegration, ExtractionTrialTraceBytesArePinned)
{
    // Volt Boot trials whose extractor runs through disabled L1s: the
    // cache model's fills, write-backs and replacement order all reach
    // these bytes, which a Fast-vs-Reference comparison in one build
    // cannot see.
    const TracePin pins[] = {
        {"board=pi4;attack=voltboot;target=dcache;seeds=1", 36858,
         0x62eea5701d9f730fULL},
        {"board=imx53;attack=voltboot;target=dcache;seeds=1", 14073,
         0xef2ce2cb0c88b299ULL},
        {"board=pi4;attack=voltboot;target=icache;seeds=1", 37025,
         0x3e4a66cf769f3e24ULL},
    };
    expectPinnedTraces(pins);
}

TEST(TraceIntegration, CampaignMetricsLandInResult)
{
    CampaignConfig cfg;
    cfg.jobs = 2;
    cfg.runner = tracedFakeTrial;
    Campaign campaign(
        SweepGrid::parse("board=pi4;attack=voltboot;seeds=6"),
        std::move(cfg));
    const CampaignResult result = campaign.run();

    EXPECT_FALSE(result.metrics.empty());
    EXPECT_GE(result.metrics.counters.at("campaign.queue_grabs"), 1.0);
    EXPECT_DOUBLE_EQ(result.metrics.gauges.at("campaign.jobs"), 2.0);
    const trace::HistogramSummary &h =
        result.metrics.histograms.at("campaign.trial_wall_s");
    EXPECT_EQ(h.count, result.records.size());

    // ...but only in the opt-in timing section of the JSON.
    EXPECT_EQ(result.toJson(false).find("metrics"), std::string::npos);
    EXPECT_NE(result.toJson(true).find("\"metrics\""),
              std::string::npos);
}

} // namespace
