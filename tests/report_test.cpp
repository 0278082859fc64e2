/**
 * @file
 * Report-layer tests: the consumption half of the observability loop.
 *
 * Covers the strict JSON parser (positions, raw number text, duplicate
 * keys), the JSONL trace reader (byte-identical round trip including
 * nan/inf-as-null args, malformed-line diagnostics), span aggregation,
 * the trace invariant checker (every valid board/target/attack combo
 * passes; each invariant fires on a crafted violation), the power
 * layer's voltage Counter events, Prometheus exposition, campaign
 * report generation (byte-deterministic across job counts), and the
 * voltboot_cli `report` subcommand's exit-code conventions end to end.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "campaign/campaign.hh"
#include "campaign/sweep_grid.hh"
#include "campaign/trial_runner.hh"
#include "core/analysis.hh"
#include "power/power_domain.hh"
#include "report/campaign_json.hh"
#include "report/heartbeat.hh"
#include "report/invariants.hh"
#include "report/json.hh"
#include "report/prometheus.hh"
#include "report/report.hh"
#include "report/span_aggregator.hh"
#include "report/trace_reader.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

using namespace voltboot;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

std::string
tempDir(const std::string &name)
{
    const std::string dir =
        (std::filesystem::path(testing::TempDir()) / name).string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// --- JSON parser -----------------------------------------------------

TEST(ReportJson, ParsesScalarsAndContainers)
{
    const report::JsonValue v = report::parseJson(
        R"({"a": 1, "b": [true, null, "x"], "c": {"d": -2.5e3}})");
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.find("a")->number, 1.0);
    const report::JsonValue &b = *v.find("b");
    ASSERT_TRUE(b.isArray());
    ASSERT_EQ(b.items.size(), 3u);
    EXPECT_TRUE(b.items[0].boolean);
    EXPECT_TRUE(b.items[1].isNull());
    EXPECT_EQ(b.items[2].text, "x");
    EXPECT_DOUBLE_EQ(v.find("c")->find("d")->number, -2500.0);
}

TEST(ReportJson, NumbersKeepRawSourceText)
{
    const report::JsonValue v =
        report::parseJson(R"([0.1, 1e300, -0, 5000.000001])");
    EXPECT_EQ(v.items[0].text, "0.1");
    EXPECT_EQ(v.items[1].text, "1e300");
    EXPECT_EQ(v.items[2].text, "-0");
    EXPECT_EQ(v.items[3].text, "5000.000001");
}

TEST(ReportJson, StringEscapesDecode)
{
    const report::JsonValue v =
        report::parseJson(R"(["a\"b\\c\nd", "\u0041\u00e9"])");
    EXPECT_EQ(v.items[0].text, "a\"b\\c\nd");
    EXPECT_EQ(v.items[1].text, "A\xc3\xa9");
}

TEST(ReportJson, RejectsDuplicateKeysWithPosition)
{
    try {
        report::parseJson("{\"k\": 1,\n \"k\": 2}", "dup.json");
        FAIL() << "duplicate key accepted";
    } catch (const report::JsonParseError &e) {
        EXPECT_EQ(e.line(), 2u);
        EXPECT_NE(std::string(e.what()).find("duplicate object key"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("dup.json:2:"),
                  std::string::npos);
    }
}

TEST(ReportJson, RejectsTrailingContentAndBadGrammar)
{
    EXPECT_THROW(report::parseJson("{} x"), report::JsonParseError);
    EXPECT_THROW(report::parseJson("{\"a\":}"), report::JsonParseError);
    EXPECT_THROW(report::parseJson("[1,]"), report::JsonParseError);
    EXPECT_THROW(report::parseJson("01"), report::JsonParseError);
    EXPECT_THROW(report::parseJson("\"\\q\""), report::JsonParseError);
    EXPECT_THROW(report::parseJson(""), report::JsonParseError);
}

TEST(ReportJson, RejectsNestingPastTheDepthLimit)
{
    auto nested = [](size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_NO_THROW(report::parseJson(nested(report::kMaxJsonDepth)));
    try {
        report::parseJson(nested(report::kMaxJsonDepth + 1), "deep.json");
        FAIL() << "nesting past the limit accepted";
    } catch (const report::JsonParseError &e) {
        EXPECT_EQ(e.column(), report::kMaxJsonDepth + 1);
        EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
                  std::string::npos);
    }
    // Deep enough to overflow an unbounded recursive descent.
    EXPECT_THROW(report::parseJson(std::string(30000, '[')),
                 report::JsonParseError);
    EXPECT_THROW(report::parseJson(std::string(30000, '{')),
                 report::JsonParseError);
}

TEST(ReportJson, UnsignedReadsAreLossless)
{
    const report::JsonValue v = report::parseJson(
        "[18446744073709551615, 12345678901234567891, 0, 1.5, 1e20,"
        " -1, 18446744073709551616, 1.0]");
    EXPECT_EQ(v.items[0].asUint64(), UINT64_MAX);
    EXPECT_EQ(v.items[1].asUint64(), 12345678901234567891ULL);
    EXPECT_EQ(v.items[2].asUint64(), 0u);
    for (size_t i = 3; i < v.items.size(); ++i)
        EXPECT_FALSE(v.items[i].asUint64().has_value()) << v.items[i].text;
}

// --- trace reader round trip -----------------------------------------

/** A deliberately adversarial event sequence: fractional timestamps
 * that stress the microsecond round trip, every arg type, non-finite
 * numbers, escaped strings. */
std::vector<trace::TraceEvent>
adversarialEvents()
{
    std::vector<trace::TraceEvent> events;

    trace::TraceEvent a;
    a.phase = trace::Phase::Instant;
    a.category = "power";
    a.name = "probe_attach";
    a.ts = Seconds(1.0 / 3.0);
    a.args.emplace_back("domain", "VDD_CORE");
    a.args.emplace_back("voltage_v", 0.8);
    a.args.emplace_back("escaped", std::string("a\"b\\c\nd"));
    events.push_back(a);

    trace::TraceEvent b;
    b.phase = trace::Phase::Complete;
    b.category = "core";
    b.name = "attack.step3_power_cycle";
    b.ts = Seconds(0.4999999999);
    b.dur = Seconds(1.2345678901e-3);
    b.args.emplace_back("ok", true);
    b.args.emplace_back("count", uint64_t{12345678901234567ull});
    b.args.emplace_back("nan_arg", std::nan(""));
    b.args.emplace_back("inf_arg", INFINITY);
    events.push_back(b);

    trace::TraceEvent c;
    c.phase = trace::Phase::Counter;
    c.category = "power";
    c.name = "voltage.VDD_CORE";
    c.ts = Seconds(0.7777777777777);
    c.args.emplace_back("v", 0.7512345);
    events.push_back(c);

    trace::TraceEvent d;
    d.phase = trace::Phase::Instant;
    d.category = "sram";
    d.name = "sram_decay";
    d.ts = Seconds(123456.789012345); // large timestamp, fractional us
    d.args.emplace_back("fraction", 1e-300);
    d.args.emplace_back("neg", -2.5);
    events.push_back(d);

    return events;
}

TEST(TraceReader, RoundTripIsByteIdentical)
{
    const std::vector<trace::TraceEvent> events = adversarialEvents();
    const std::string jsonl = trace::toJsonl(events);
    const std::vector<trace::TraceEvent> parsed =
        report::readTrace(jsonl);
    ASSERT_EQ(parsed.size(), events.size());
    EXPECT_EQ(trace::toJsonl(parsed), jsonl);

    // Field-level spot checks beyond the byte contract.
    EXPECT_EQ(parsed[0].phase, trace::Phase::Instant);
    EXPECT_EQ(std::string(parsed[0].category), "power");
    EXPECT_EQ(parsed[1].phase, trace::Phase::Complete);
    EXPECT_EQ(parsed[1].args[2].json, "null"); // nan serialized as null
    EXPECT_EQ(parsed[1].args[3].json, "null"); // inf serialized as null
    EXPECT_EQ(parsed[2].phase, trace::Phase::Counter);
}

TEST(TraceReader, RoundTripSurvivesRepeatedCycles)
{
    std::string jsonl = trace::toJsonl(adversarialEvents());
    for (int cycle = 0; cycle < 3; ++cycle) {
        const std::string again =
            trace::toJsonl(report::readTrace(jsonl));
        EXPECT_EQ(again, jsonl) << "cycle " << cycle;
        jsonl = again;
    }
}

TEST(TraceReader, KnownCategoriesInternToStableStorage)
{
    const char *a = report::internCategory("power");
    const char *b = report::internCategory("power");
    EXPECT_EQ(a, b);
    const char *x = report::internCategory("custom_layer");
    const char *y = report::internCategory("custom_layer");
    EXPECT_EQ(x, y);
    EXPECT_EQ(std::string(x), "custom_layer");
}

TEST(TraceReader, MalformedLinesCarryDiagnostics)
{
    auto expectError = [](const std::string &line,
                          const std::string &needle) {
        try {
            report::readTraceLine(line, "t.jsonl", 7);
            FAIL() << "accepted: " << line;
        } catch (const report::JsonParseError &e) {
            EXPECT_EQ(e.line(), 7u) << line;
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << "message '" << e.what() << "' lacks '" << needle
                << "'";
        }
    };

    expectError(R"({"ts_us": 0, "cat": "c", "ph": "i", "name": "n")",
                "unterminated object");
    expectError(R"({"cat": "c", "ph": "i", "name": "n", "args": {}})",
                "missing required key \"ts_us\"");
    expectError(R"({"ts_us": 0, "cat": "c", "ph": "z", "name": "n",)"
                R"( "args": {}})",
                "unknown phase");
    expectError(R"({"ts_us": 0, "cat": "c", "ph": "X", "name": "n",)"
                R"( "args": {}})",
                "require \"dur_us\"");
    expectError(R"({"ts_us": 0, "cat": "c", "ph": "i", "name": "n",)"
                R"( "dur_us": 1, "args": {}})",
                "only valid on \"X\" events");
    expectError(R"({"ts_us": 0, "cat": "c", "ph": "i", "name": "n",)"
                R"( "bogus": 1, "args": {}})",
                "unknown trace key");
    expectError(R"({"ts_us": 0, "cat": "c", "ph": "i", "name": "n",)"
                R"( "args": {"k": [1]}})",
                "must be scalars");

    // Whole-document reads point at the offending line.
    const std::string doc =
        trace::toJsonlLine(adversarialEvents()[0]) + "\n" + "{broken\n";
    try {
        report::readTrace(doc, "multi.jsonl");
        FAIL() << "accepted corrupt document";
    } catch (const report::JsonParseError &e) {
        EXPECT_EQ(e.line(), 2u);
    }

    EXPECT_THROW(report::readTrace("\n", "blank.jsonl"),
                 report::JsonParseError);
}

// --- span aggregation ------------------------------------------------

std::vector<trace::TraceEvent>
nestedSpanEvents()
{
    // Children emit before parents, matching trace::Span semantics:
    //   parent [0, 10ms] { child_a [1, 4ms], child_b [5, 8ms] }
    std::vector<trace::TraceEvent> events;
    auto span = [](const char *name, double start_ms, double end_ms) {
        trace::TraceEvent ev;
        ev.phase = trace::Phase::Complete;
        ev.category = "core";
        ev.name = name;
        ev.ts = Seconds::milliseconds(start_ms);
        ev.dur = Seconds::milliseconds(end_ms - start_ms);
        return ev;
    };
    events.push_back(span("child_a", 1, 4));
    events.push_back(span("child_b", 5, 8));
    events.push_back(span("parent", 0, 10));
    return events;
}

TEST(SpanAggregator, ReconstructsNestingAndSelfTime)
{
    const report::SpanAggregate agg =
        report::SpanAggregate::build(nestedSpanEvents());

    ASSERT_EQ(agg.roots().size(), 1u);
    const report::SpanNode &parent = agg.roots()[0];
    EXPECT_EQ(parent.name, "parent");
    ASSERT_EQ(parent.children.size(), 2u);
    EXPECT_EQ(parent.children[0].name, "child_a");
    EXPECT_EQ(parent.children[1].name, "child_b");
    // 10ms total minus 3ms + 3ms of children.
    EXPECT_NEAR(parent.self_s, 0.004, 1e-12);

    EXPECT_EQ(agg.spans().at("core/parent").count, 1u);
    EXPECT_NEAR(agg.spans().at("core/child_a").total_s, 0.003, 1e-12);
    EXPECT_EQ(agg.totalEvents(), 3u);

    const std::string tree = agg.renderTree();
    EXPECT_NE(tree.find("core/parent"), std::string::npos);
    EXPECT_NE(tree.find("  - core/child_a"), std::string::npos);
}

TEST(SpanAggregator, ExtractsVoltageWaveforms)
{
    std::vector<trace::TraceEvent> events;
    for (double v : {1.0, 0.75, 0.0}) {
        trace::TraceEvent ev;
        ev.phase = trace::Phase::Counter;
        ev.category = "power";
        ev.name = "voltage.VDD_X";
        ev.ts = Seconds(events.size() * 0.001);
        ev.args.emplace_back("v", v);
        events.push_back(ev);
    }
    const report::SpanAggregate agg =
        report::SpanAggregate::build(events);
    ASSERT_EQ(agg.waveforms().count("VDD_X"), 1u);
    const auto &wf = agg.waveforms().at("VDD_X");
    ASSERT_EQ(wf.size(), 3u);
    EXPECT_DOUBLE_EQ(wf[0].volts, 1.0);
    EXPECT_DOUBLE_EQ(wf[2].volts, 0.0);
    EXPECT_NE(agg.renderWaveforms().find("`VDD_X`"), std::string::npos);
}

// --- invariants: every real combination passes -----------------------

struct Combo
{
    const char *board;
    const char *target;
    const char *attack;
};

std::vector<Combo>
validCombos()
{
    std::vector<Combo> combos;
    for (const char *board : {"pi3", "pi4"}) {
        for (const char *target :
             {"dcache", "icache", "regs", "tlb", "btb"})
            combos.push_back({board, target, "voltboot"});
        for (const char *target : {"dcache", "icache"})
            combos.push_back({board, target, "coldboot"});
    }
    combos.push_back({"imx53", "iram", "voltboot"});
    return combos;
}

TEST(Invariants, EveryBoardTargetAttackComboPasses)
{
    for (const Combo &combo : validCombos()) {
        const SweepGrid grid = SweepGrid::parse(
            std::string("board=") + combo.board + ";target=" +
            combo.target + ";attack=" + combo.attack +
            ";off-ms=5;seeds=1");
        trace::MemoryTraceSink sink;
        {
            trace::Scope scope(sink);
            runTrial(grid.at(0), 0x5eed);
        }
        ASSERT_FALSE(sink.events().empty())
            << combo.board << "/" << combo.target << "/" << combo.attack;
        const std::vector<report::Violation> violations =
            report::checkTraceInvariants(sink.events());
        EXPECT_TRUE(violations.empty())
            << combo.board << "/" << combo.target << "/" << combo.attack
            << ":\n"
            << report::renderViolations(violations);

        // Every real trace also honours the byte round trip.
        const std::string jsonl = trace::toJsonl(sink.events());
        EXPECT_EQ(trace::toJsonl(report::readTrace(jsonl)), jsonl)
            << combo.board << "/" << combo.target << "/" << combo.attack;
    }
}

// --- invariants: each check fires on a crafted violation -------------

trace::TraceEvent
instantAt(const char *cat, const char *name, double ts_s,
          std::vector<trace::Arg> args = {})
{
    trace::TraceEvent ev;
    ev.phase = trace::Phase::Instant;
    ev.category = cat;
    ev.name = name;
    ev.ts = Seconds(ts_s);
    ev.args = std::move(args);
    return ev;
}

trace::TraceEvent
counterAt(const char *name, double ts_s, double volts)
{
    trace::TraceEvent ev;
    ev.phase = trace::Phase::Counter;
    ev.category = "power";
    ev.name = name;
    ev.ts = Seconds(ts_s);
    ev.args.emplace_back("v", volts);
    return ev;
}

bool
hasViolation(const std::vector<report::Violation> &violations,
             const std::string &invariant)
{
    for (const report::Violation &v : violations)
        if (invariant == v.invariant)
            return true;
    return false;
}

TEST(Invariants, DetectsBackwardsTime)
{
    std::vector<trace::TraceEvent> events;
    events.push_back(instantAt("power", "late", 0.5));
    events.push_back(instantAt("power", "early", 0.1));
    EXPECT_TRUE(hasViolation(report::checkTraceInvariants(events),
                             "monotonic_time"));
}

TEST(Invariants, DetectsNegativeDuration)
{
    trace::TraceEvent ev;
    ev.phase = trace::Phase::Complete;
    ev.category = "core";
    ev.name = "bad_span";
    ev.ts = Seconds(1.0);
    ev.dur = Seconds(-0.5);
    EXPECT_TRUE(hasViolation(
        report::checkTraceInvariants(std::vector{ev}),
        "monotonic_time"));
}

TEST(Invariants, DetectsPartialSpanOverlap)
{
    std::vector<trace::TraceEvent> events;
    auto span = [](double s, double e) {
        trace::TraceEvent ev;
        ev.phase = trace::Phase::Complete;
        ev.category = "core";
        ev.name = "span";
        ev.ts = Seconds(s);
        ev.dur = Seconds(e - s);
        return ev;
    };
    events.push_back(span(0.0, 0.6)); // [0, 0.6]
    events.push_back(span(0.4, 1.0)); // straddles the first's end
    EXPECT_TRUE(hasViolation(report::checkTraceInvariants(events),
                             "span_nesting"));
}

TEST(Invariants, DetectsNegativeVoltage)
{
    std::vector<trace::TraceEvent> events;
    events.push_back(instantAt("power", "domain_scale", 0.0,
                               {{"domain", "VDD_X"},
                                {"from_v", 1.0},
                                {"to_v", -0.1}}));
    EXPECT_TRUE(hasViolation(report::checkTraceInvariants(events),
                             "nonnegative_voltage"));
}

TEST(Invariants, DetectsProbeHoldDip)
{
    std::vector<trace::TraceEvent> events;
    events.push_back(instantAt("power", "probe_attach", 0.0,
                               {{"domain", "VDD_X"},
                                {"voltage_v", 0.8}}));
    events.push_back(instantAt("power", "probe_transient", 0.001,
                               {{"domain", "VDD_X"},
                                {"v_min", 0.7},
                                {"v_settled", 0.78}}));
    events.push_back(counterAt("voltage.VDD_X", 0.002, 0.2)); // dip!
    const auto violations = report::checkTraceInvariants(events);
    EXPECT_TRUE(hasViolation(violations, "probe_hold"));

    // The same sample at the hold floor is fine.
    events.back() = counterAt("voltage.VDD_X", 0.002, 0.7);
    EXPECT_TRUE(report::checkTraceInvariants(events).empty());
}

TEST(Invariants, DetectsAttackStepDisorder)
{
    std::vector<trace::TraceEvent> events;
    auto step = [](const char *name, double s, double e) {
        trace::TraceEvent ev;
        ev.phase = trace::Phase::Complete;
        ev.category = "core";
        ev.name = name;
        ev.ts = Seconds(s);
        ev.dur = Seconds(e - s);
        return ev;
    };
    events.push_back(step("attack.step4_extract", 0.0, 0.1));
    events.push_back(step("attack.step3_power_cycle", 0.2, 0.3));
    EXPECT_TRUE(hasViolation(report::checkTraceInvariants(events),
                             "attack_step_order"));

    // A fresh run restarting at steps 1-2 is legitimate.
    std::vector<trace::TraceEvent> ok;
    ok.push_back(step("attack.steps12_probe", 0.0, 0.1));
    ok.push_back(step("attack.step3_power_cycle", 0.2, 0.3));
    ok.push_back(step("attack.step4_extract", 0.4, 0.5));
    ok.push_back(step("attack.steps12_probe", 0.6, 0.7));
    ok.push_back(step("attack.step3_power_cycle", 0.8, 0.9));
    EXPECT_TRUE(report::checkTraceInvariants(ok).empty());
}

/** One rail-excursion span kind: its name, the arg carrying its depth
 * bound and the invariant that polices it. */
struct ExcursionKind
{
    const char *span;
    const char *depth_key;
    const char *invariant;
};

const ExcursionKind kExcursionKinds[] = {
    {"glitch.pulse", "depth_v", "glitch_bounds"},
    {"undervolt.hold", "depth_v", "sidechannel_bounds"},
    {"coupling.capture", "dip_bound_v", "sidechannel_bounds"},
};

/** A `kind` span covering [0.5, 3] ns on VDD_CORE (nominal 0.8 V,
 * depth 0.3 V, so samples must stay in [0.5, 0.8] V and end at 0.8 V),
 * preceded by VDD_CORE counter samples at (ns, V). */
std::vector<trace::TraceEvent>
excursionTrace(const ExcursionKind &kind,
               const std::vector<std::pair<double, double>> &samples,
               bool depth_arg = true)
{
    std::vector<trace::TraceEvent> events;
    for (const auto &[ns, v] : samples)
        events.push_back(counterAt("voltage.VDD_CORE", ns * 1e-9, v));
    trace::TraceEvent span;
    span.phase = trace::Phase::Complete;
    span.category = "power";
    span.name = kind.span;
    span.ts = Seconds(0.5e-9);
    span.dur = Seconds(2.5e-9);
    span.args.emplace_back("domain", "VDD_CORE");
    span.args.emplace_back("nominal_v", 0.8);
    if (depth_arg)
        span.args.emplace_back(kind.depth_key, 0.3);
    events.push_back(std::move(span));
    return events;
}

const ExcursionKind &kGlitchPulse = kExcursionKinds[0];

TEST(Invariants, GlitchBoundsAcceptsAWellFormedPulse)
{
    EXPECT_TRUE(report::checkTraceInvariants(
                    excursionTrace(kGlitchPulse,
                                   {{1.0, 0.6}, {2.0, 0.5}, {3.0, 0.8}}))
                    .empty());
}

TEST(Invariants, DetectsGlitchExcursionBeyondDepth)
{
    EXPECT_TRUE(hasViolation(
        report::checkTraceInvariants(
            excursionTrace(kGlitchPulse, {{1.0, 0.4}, {3.0, 0.8}})),
        "glitch_bounds"));
}

TEST(Invariants, DetectsGlitchThatNeverRecovers)
{
    EXPECT_TRUE(hasViolation(
        report::checkTraceInvariants(
            excursionTrace(kGlitchPulse, {{1.0, 0.6}, {2.9, 0.6}})),
        "glitch_bounds"));
}

TEST(Invariants, DetectsGlitchPulseWithoutSamples)
{
    EXPECT_TRUE(hasViolation(
        report::checkTraceInvariants(excursionTrace(kGlitchPulse, {})),
        "glitch_bounds"));
}

TEST(Invariants, ExcursionBoundsTable)
{
    struct Case
    {
        const char *what;
        std::vector<std::pair<double, double>> samples; // (ns, V)
        bool depth_arg;
        bool holds;
    };
    const Case cases[] = {
        {"well formed", {{1.0, 0.6}, {2.0, 0.5}, {3.0, 0.8}}, true, true},
        {"undershoot", {{1.0, 0.4}, {3.0, 0.8}}, true, false},
        {"overshoot", {{1.0, 0.9}, {3.0, 0.8}}, true, false},
        {"no recovery", {{1.0, 0.6}, {2.9, 0.6}}, true, false},
        {"no samples", {}, true, false},
        {"missing depth arg", {{1.0, 0.6}, {3.0, 0.8}}, false, false},
    };
    for (const ExcursionKind &kind : kExcursionKinds) {
        for (const Case &c : cases) {
            SCOPED_TRACE(std::string(kind.span) + ": " + c.what);
            const std::vector<report::Violation> violations =
                report::checkTraceInvariants(
                    excursionTrace(kind, c.samples, c.depth_arg));
            if (c.holds) {
                EXPECT_TRUE(violations.empty())
                    << report::renderViolations(violations);
                continue;
            }
            EXPECT_FALSE(violations.empty());
            for (const report::Violation &v : violations)
                EXPECT_STREQ(v.invariant, kind.invariant)
                    << report::renderViolations(violations);
        }
    }
}

TEST(Invariants, RealGlitchTrialTracePasses)
{
    const SweepGrid grid = SweepGrid::parse(
        "attack=glitch;glitch-off-ns=109;glitch-width-ns=2;"
        "glitch-depth=0.5;seeds=1");
    trace::MemoryTraceSink sink;
    {
        trace::Scope scope(sink);
        runTrial(grid.at(0), 0x5eed);
    }
    bool has_pulse = false;
    for (const trace::TraceEvent &ev : sink.events())
        has_pulse |= ev.phase == trace::Phase::Complete &&
                     ev.name == "glitch.pulse";
    EXPECT_TRUE(has_pulse);
    const std::vector<report::Violation> violations =
        report::checkTraceInvariants(sink.events());
    EXPECT_TRUE(violations.empty())
        << report::renderViolations(violations);
}

// --- power layer voltage counters ------------------------------------

TEST(PowerCounters, DomainEmitsVoltageSamples)
{
    trace::MemoryTraceSink sink;
    {
        trace::Scope scope(sink);
        PowerDomain dom("VDD_TEST", Volt(1.0), RegulatorKind::Buck);
        dom.powerUp(Seconds(0.0), Temperature::celsius(25));
        trace::setSimTime(Seconds(0.001));
        dom.scaleVoltage(Volt(0.9));
        VoltageProbe probe;
        probe.voltage = Volt(0.8);
        dom.attachProbe(probe);
        trace::setSimTime(Seconds(0.002));
        dom.powerDown(Seconds(0.002));
        dom.detachProbe();
    }

    const report::SpanAggregate agg =
        report::SpanAggregate::build(sink.events());
    ASSERT_EQ(agg.waveforms().count("VDD_TEST"), 1u);
    const auto &wf = agg.waveforms().at("VDD_TEST");
    // power-up, scale, droop minimum, settled, detach-to-zero.
    ASSERT_EQ(wf.size(), 5u);
    EXPECT_DOUBLE_EQ(wf[0].volts, 1.0);
    EXPECT_DOUBLE_EQ(wf[1].volts, 0.9);
    EXPECT_LE(wf[2].volts, wf[3].volts); // v_min <= v_settled
    EXPECT_GT(wf[2].volts, 0.0);
    EXPECT_DOUBLE_EQ(wf[4].volts, 0.0);

    // The emitted sequence satisfies the trace invariants, probe_hold
    // included.
    EXPECT_TRUE(report::checkTraceInvariants(sink.events()).empty());
}

// --- Prometheus exposition -------------------------------------------

TEST(Prometheus, RendersCountersGaugesAndSummaries)
{
    trace::MetricsSnapshot snap;
    snap.counters["campaign.queue_grabs"] = 12;
    snap.gauges["campaign.jobs"] = 4;
    trace::HistogramSummary h;
    h.count = 8;
    h.mean = 0.5;
    h.min = 0.1;
    h.max = 1.0;
    h.p50 = 0.4;
    h.p90 = 0.9;
    h.p99 = 1.0;
    snap.histograms["campaign.trial_wall_s"] = h;

    const std::string expected =
        "# TYPE voltboot_campaign_queue_grabs counter\n"
        "voltboot_campaign_queue_grabs 12\n"
        "# TYPE voltboot_campaign_jobs gauge\n"
        "voltboot_campaign_jobs 4\n"
        "# TYPE voltboot_campaign_trial_wall_s summary\n"
        "voltboot_campaign_trial_wall_s{quantile=\"0.5\"} 0.4\n"
        "voltboot_campaign_trial_wall_s{quantile=\"0.9\"} 0.9\n"
        "voltboot_campaign_trial_wall_s{quantile=\"0.99\"} 1\n"
        "voltboot_campaign_trial_wall_s_sum 4\n"
        "voltboot_campaign_trial_wall_s_count 8\n";
    EXPECT_EQ(report::toPrometheus(snap), expected);
}

TEST(Prometheus, EmptySnapshotRendersEmpty)
{
    EXPECT_EQ(report::toPrometheus(trace::MetricsSnapshot{}), "");
}

TEST(Prometheus, EscapesLabelValues)
{
    EXPECT_EQ(report::escapeLabelValue("plain"), "plain");
    EXPECT_EQ(report::escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(report::escapeLabelValue("say \"hi\""),
              "say \\\"hi\\\"");
    EXPECT_EQ(report::escapeLabelValue("line1\nline2"),
              "line1\\nline2");
    EXPECT_EQ(report::escapeLabelValue("\\\"\n"), "\\\\\\\"\\n");
}

TEST(Prometheus, ConstantLabelsOnEverySample)
{
    trace::MetricsSnapshot snap;
    snap.counters["c"] = 1;
    snap.gauges["g"] = 2;
    trace::HistogramSummary h;
    h.count = 2;
    h.mean = 1.0;
    h.p50 = h.p90 = h.p99 = 1.0;
    snap.histograms["h"] = h;

    const report::PrometheusLabels labels = {
        {"grid", "board=a\nseed=\"1\""}, {"job", "0"}};
    const std::string expected =
        "# TYPE voltboot_c counter\n"
        "voltboot_c{grid=\"board=a\\nseed=\\\"1\\\"\",job=\"0\"} 1\n"
        "# TYPE voltboot_g gauge\n"
        "voltboot_g{grid=\"board=a\\nseed=\\\"1\\\"\",job=\"0\"} 2\n"
        "# TYPE voltboot_h summary\n"
        "voltboot_h{grid=\"board=a\\nseed=\\\"1\\\"\",job=\"0\","
        "quantile=\"0.5\"} 1\n"
        "voltboot_h{grid=\"board=a\\nseed=\\\"1\\\"\",job=\"0\","
        "quantile=\"0.9\"} 1\n"
        "voltboot_h{grid=\"board=a\\nseed=\\\"1\\\"\",job=\"0\","
        "quantile=\"0.99\"} 1\n"
        "voltboot_h_sum{grid=\"board=a\\nseed=\\\"1\\\"\",job=\"0\"} 2\n"
        "voltboot_h_count{grid=\"board=a\\nseed=\\\"1\\\"\",job=\"0\"}"
        " 2\n";
    EXPECT_EQ(report::toPrometheus(snap, labels), expected);
}

TEST(Prometheus, NanAndInfRenderAsExpositionLiterals)
{
    trace::MetricsSnapshot snap;
    snap.gauges["eta"] = std::numeric_limits<double>::quiet_NaN();
    snap.gauges["hi"] = std::numeric_limits<double>::infinity();
    snap.gauges["lo"] = -std::numeric_limits<double>::infinity();
    const std::string out = report::toPrometheus(snap);
    EXPECT_NE(out.find("voltboot_eta NaN\n"), std::string::npos);
    EXPECT_NE(out.find("voltboot_hi +Inf\n"), std::string::npos);
    EXPECT_NE(out.find("voltboot_lo -Inf\n"), std::string::npos);
}

TEST(Prometheus, ExpositionIsByteDeterministic)
{
    // Insertion order must not leak into the exposition: the snapshot
    // maps are ordered, so two snapshots with the same contents render
    // byte-identically regardless of how they were built.
    trace::MetricsSnapshot a;
    a.counters["z.last"] = 3;
    a.counters["a.first"] = 1;
    a.gauges["m.mid"] = 2;
    trace::MetricsSnapshot b;
    b.gauges["m.mid"] = 2;
    b.counters["a.first"] = 1;
    b.counters["z.last"] = 3;
    const std::string ra = report::toPrometheus(a);
    EXPECT_EQ(ra, report::toPrometheus(b));
    // Counters render before gauges, names sorted within each kind.
    EXPECT_LT(ra.find("voltboot_a_first"), ra.find("voltboot_z_last"));
    EXPECT_LT(ra.find("voltboot_z_last"), ra.find("voltboot_m_mid"));
}

// --- heartbeat stream reader -----------------------------------------

namespace
{

std::string
heartbeatLine(uint64_t seq, bool final_sample, uint64_t completed,
              double rate)
{
    std::ostringstream os;
    os << "{\"schema\": \"voltboot-heartbeat-v1\", \"seq\": " << seq
       << ", \"final\": " << (final_sample ? "true" : "false")
       << ", \"campaign\": {\"seed\": 77, \"grid\": \"board=x\", "
          "\"total_trials\": 24}"
       << ", \"progress\": {\"started\": " << completed
       << ", \"completed\": " << completed << ", \"won\": " << completed
       << ", \"failed\": 0, \"skipped\": 0}"
       << ", \"counters\": {\"trials_completed\": " << completed
       << ", \"cells_processed\": " << completed * 1000 << "}"
       << ", \"wall\": {\"unix_ms\": " << 1000000 + seq * 1000
       << ", \"elapsed_s\": " << seq << ".0, \"trials_per_sec\": "
       << rate << ", \"trials_per_sec_ewma\": " << rate
       << ", \"eta_s\": 5.0}}";
    return os.str();
}

} // namespace

TEST(Heartbeat, ReadsStreamAndToleratesTornTail)
{
    const std::string dir = tempDir("heartbeat_read");
    const std::string path = dir + "/hb.jsonl";
    {
        std::ofstream out(path, std::ios::binary);
        out << heartbeatLine(1, false, 4, 4.0) << "\n";
        out << "\n"; // blank line: skipped
        out << "{\"schema\": \"something-else\", \"seq\": 9}\n";
        out << heartbeatLine(2, false, 9, 5.0) << "\n";
        out << heartbeatLine(3, true, 24, 5.5) << "\n";
        // Torn tail write from a killed process: no newline, cut mid-
        // object. Must be dropped without losing the lines before it.
        out << "{\"schema\": \"voltboot-heartbeat-v1\", \"seq\": 4, ";
    }
    const std::vector<report::Heartbeat> beats =
        report::readHeartbeats(path);
    ASSERT_EQ(beats.size(), 3u);
    EXPECT_EQ(beats[0].seq, 1u);
    EXPECT_FALSE(beats[0].final_sample);
    EXPECT_EQ(beats[0].campaign_seed, 77u);
    EXPECT_EQ(beats[0].grid_spec, "board=x");
    EXPECT_EQ(beats[0].total_trials, 24u);
    EXPECT_EQ(beats[0].completed, 4u);
    EXPECT_EQ(beats[0].counters.at("cells_processed"), 4000u);
    EXPECT_DOUBLE_EQ(beats[1].trials_per_sec, 5.0);
    EXPECT_TRUE(beats[2].final_sample);
    EXPECT_EQ(beats[2].completed, 24u);
    EXPECT_EQ(beats[2].unix_ms, 1003000u);

    const std::string summary = report::renderHeartbeatSummary(beats);
    EXPECT_NE(summary.find("clean shutdown"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Heartbeat, MissingFinalSampleReadsAsInterrupted)
{
    const std::string dir = tempDir("heartbeat_interrupted");
    const std::string path = dir + "/hb.jsonl";
    {
        std::ofstream out(path, std::ios::binary);
        out << heartbeatLine(1, false, 4, 4.0) << "\n";
        out << heartbeatLine(2, false, 9, 5.0) << "\n";
    }
    const std::vector<report::Heartbeat> beats =
        report::readHeartbeats(path);
    ASSERT_EQ(beats.size(), 2u);
    const std::string summary = report::renderHeartbeatSummary(beats);
    EXPECT_NE(summary.find("interrupted"), std::string::npos);
    EXPECT_EQ(summary.find("clean shutdown"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Heartbeat, EmptyStreamRendersEmpty)
{
    const std::string dir = tempDir("heartbeat_empty");
    const std::string path = dir + "/hb.jsonl";
    std::ofstream(path).close();
    EXPECT_TRUE(report::readHeartbeats(path).empty());
    EXPECT_EQ(report::renderHeartbeatSummary({}), "");
    std::filesystem::remove_all(dir);
}

// --- campaign JSON parsing -------------------------------------------

/** Every kRecordFields field of @p got equals that of @p want. */
void
expectSameFields(const TrialRecord &got, const TrialRecord &want)
{
    for (const RecordField &field : kRecordFields)
        EXPECT_EQ(plainText(readMember(field.member, got)),
                  plainText(readMember(field.member, want)))
            << "record " << want.spec.index << " field " << field.name;
}

TEST(CampaignJson, RoundTripsThroughResultJson)
{
    CampaignConfig cfg;
    cfg.jobs = 2;
    Campaign campaign(
        SweepGrid::parse(
            "board=pi4;attack=voltboot,coldboot,glitch,static-extract,"
            "voltage-coupling,key-recovery;off-ms=5;glitch-off-ns=109;"
            "glitch-width-ns=2;glitch-depth=0.5;undervolt-depth=0.45;"
            "hold-ns=400;dumps=2;prior=1;key=1;seeds=1"),
        std::move(cfg));
    const CampaignResult result = campaign.run();

    const report::SweepDoc sweep =
        report::parseSweepJson(result.toJson(true), "sweep.json");
    EXPECT_EQ(sweep.schema, "voltboot-campaign-v1");
    EXPECT_EQ(sweep.campaign_seed, result.campaign_seed);
    EXPECT_EQ(sweep.grid, result.grid_spec);
    ASSERT_EQ(sweep.records.size(), result.records.size());
    for (size_t i = 0; i < result.records.size(); ++i)
        expectSameFields(sweep.records[i], result.records[i]);
    EXPECT_TRUE(sweep.has_timing);
    EXPECT_EQ(sweep.jobs, result.jobs);
    EXPECT_EQ(sweep.metrics.histograms.count("campaign.trial_wall_s"),
              1u);

    // The canonical document has no timing section.
    const report::SweepDoc bare =
        report::parseSweepJson(result.toJson(false));
    EXPECT_FALSE(bare.has_timing);
}

/** The 20 keys of an original v1 record, in order. */
const std::vector<std::pair<std::string, std::string>> kV1Record = {
    {"index", "0"},
    {"board", "\"pi3\""},
    {"target", "\"icache\""},
    {"attack", "\"coldboot\""},
    {"temp_c", "-40"},
    {"off_ms", "5"},
    {"current_a", "3"},
    {"impedance_mohm", "50"},
    {"seed_index", "2"},
    {"chip_seed", "18446744073709551615"},
    {"status", "\"attack_failed\""},
    {"detail", "\"boot failed\""},
    {"probe_attached", "false"},
    {"booted", "false"},
    {"dump_bytes", "0"},
    {"accuracy", "0.25"},
    {"bit_error_rate", "0.75"},
    {"key_planted", "false"},
    {"key_found", "false"},
    {"key_exact", "false"},
};

/** A one-record sweep document; the record's keys are @p fields with
 * @p skip left out, one per line. */
std::string
sweepWithRecord(const std::vector<std::pair<std::string, std::string>>
                    &fields,
                const std::string &skip = "")
{
    std::string doc = "{\"schema\": \"voltboot-campaign-v1\",\n"
                      "\"campaign_seed\": 18446744073709551615,\n"
                      "\"grid\": \"g\", \"trials\": 1, \"records\": [{";
    const char *sep = "\n";
    for (const auto &[key, value] : fields) {
        if (key == skip)
            continue;
        doc += sep + ("\"" + key + "\": " + value);
        sep = ",\n";
    }
    return doc + "}]}";
}

TEST(CampaignJson, ReadsV1RecordsWithDefaults)
{
    size_t v1_fields = 0;
    for (const RecordField &field : kRecordFields)
        v1_fields += field.since == Since::V1;
    ASSERT_EQ(v1_fields, kV1Record.size());

    const report::SweepDoc doc =
        report::parseSweepJson(sweepWithRecord(kV1Record));
    EXPECT_EQ(doc.campaign_seed, UINT64_MAX);
    ASSERT_EQ(doc.records.size(), 1u);
    const TrialRecord &rec = doc.records[0];
    EXPECT_EQ(rec.spec.board, "pi3");
    EXPECT_EQ(rec.spec.target, TargetRam::ICache);
    EXPECT_EQ(rec.spec.attack, AttackKind::ColdBoot);
    EXPECT_EQ(rec.spec.seed_index, 2u);
    EXPECT_EQ(rec.chip_seed, UINT64_MAX);
    EXPECT_EQ(rec.status, TrialStatus::AttackFailed);
    EXPECT_EQ(rec.detail, "boot failed");
    EXPECT_EQ(rec.accuracy, 0.25);
    // Every later field reads back as its TrialRecord default.
    const TrialRecord defaults;
    for (const RecordField &field : kRecordFields) {
        if (field.since == Since::PostV1) {
            EXPECT_EQ(plainText(readMember(field.member, rec)),
                      plainText(readMember(field.member, defaults)))
                << field.name;
        }
    }
}

TEST(CampaignJson, MissingRequiredKeyIsNamed)
{
    for (const auto &[key, value] : kV1Record) {
        try {
            report::parseSweepJson(sweepWithRecord(kV1Record, key));
            ADD_FAILURE() << "record without \"" << key << "\" accepted";
        } catch (const report::JsonParseError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "missing required key \"" + key + "\""),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(CampaignJson, UnknownEnumSpellingFailsWithPosition)
{
    for (const auto &[key, bad] :
         {std::pair<std::string, std::string>{"attack", "warmboot"},
          {"target", "l9cache"},
          {"status", "fine"}}) {
        auto fields = kV1Record;
        size_t line = 4; // the record's first key sits on line 4
        for (auto &[k, v] : fields) {
            if (k == key) {
                v = "\"" + bad + "\"";
                break;
            }
            ++line;
        }
        try {
            report::parseSweepJson(sweepWithRecord(fields), "s.json");
            ADD_FAILURE() << key << " \"" << bad << "\" accepted";
        } catch (const report::JsonParseError &e) {
            EXPECT_EQ(e.line(), line) << e.what();
            EXPECT_EQ(e.column(), key.size() + 5) << e.what();
            EXPECT_NE(std::string(e.what()).find("unknown " + key + " \"" +
                                                 bad + "\""),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(CampaignJson, UnsignedValuesAreExact)
{
    // 64-bit seeds round-trip; a double would keep only 53 bits.
    CampaignResult result;
    result.campaign_seed = UINT64_MAX;
    result.records.emplace_back();
    result.records[0].chip_seed = 12345678901234567891ULL;
    const report::SweepDoc doc =
        report::parseSweepJson(result.toJson(), "s.json");
    EXPECT_EQ(doc.campaign_seed, UINT64_MAX);
    ASSERT_EQ(doc.records.size(), 1u);
    EXPECT_EQ(doc.records[0].chip_seed, 12345678901234567891ULL);

    for (const char *bad : {"1.5", "1e20", "-1", "18446744073709551616"}) {
        auto fields = kV1Record;
        fields[14].second = bad; // dump_bytes
        ASSERT_EQ(fields[14].first, "dump_bytes");
        try {
            report::parseSweepJson(sweepWithRecord(fields), "s.json");
            ADD_FAILURE() << "dump_bytes " << bad << " accepted";
        } catch (const report::JsonParseError &e) {
            EXPECT_EQ(e.line(), 18u) << e.what();
            EXPECT_NE(std::string(e.what()).find("unsigned integer"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(CampaignJson, RejectsSchemaViolations)
{
    EXPECT_THROW(report::parseSweepJson("{}"), report::JsonParseError);
    EXPECT_THROW(
        report::parseSweepJson(
            R"({"schema": "other", "campaign_seed": 1, "grid": "g",)"
            R"( "trials": 0, "records": []})"),
        report::JsonParseError);
    // trials / record-count mismatch.
    EXPECT_THROW(
        report::parseSweepJson(
            R"({"schema": "voltboot-campaign-v1", "campaign_seed": 1,)"
            R"( "grid": "g", "trials": 3, "records": []})"),
        report::JsonParseError);
}

// --- campaign report -------------------------------------------------

TEST(CampaignReport, ByteDeterministicAcrossJobCounts)
{
    auto reportForJobs = [](unsigned jobs) {
        const std::string dir =
            tempDir("report_jobs_" + std::to_string(jobs));
        CampaignConfig cfg;
        cfg.jobs = jobs;
        cfg.trace_dir = dir;
        Campaign campaign(
            SweepGrid::parse(
                "board=pi4;attack=voltboot,coldboot;off-ms=5;seeds=1"),
            std::move(cfg));
        const CampaignResult result = campaign.run();

        const report::SweepDoc sweep =
            report::parseSweepJson(result.toJson(false));
        report::CampaignReportOptions opts;
        opts.trace_dir = dir;
        opts.check = true;
        const report::CampaignReport rep =
            report::buildCampaignReport(sweep, opts);
        EXPECT_TRUE(rep.problems.empty())
            << (rep.problems.empty() ? std::string()
                                     : rep.problems.front());
        return rep.markdown;
    };

    const std::string md1 = reportForJobs(1);
    const std::string md4 = reportForJobs(4);
    EXPECT_EQ(md1, md4);
    EXPECT_NE(md1.find("## Outcome summary"), std::string::npos);
    EXPECT_NE(md1.find("## Retention vs power-off time"),
              std::string::npos);
    EXPECT_NE(md1.find("invariant check: PASS"), std::string::npos);
    // Canonical sweeps must not leak wall-clock content.
    EXPECT_EQ(md1.find("## Wall clock"), std::string::npos);
}

TEST(CampaignReport, MissingTraceIsAProblemUnderCheck)
{
    report::SweepDoc sweep;
    sweep.schema = "voltboot-campaign-v1";
    sweep.grid = "g";
    TrialRecord rec;
    rec.status = TrialStatus::Ok;
    sweep.records.push_back(rec);

    report::CampaignReportOptions opts;
    opts.trace_dir = tempDir("report_missing_traces");
    opts.check = true;
    const report::CampaignReport rep =
        report::buildCampaignReport(sweep, opts);
    ASSERT_EQ(rep.problems.size(), 1u);
    EXPECT_NE(rep.problems[0].find("missing trace file"),
              std::string::npos);

    // Without --check, the gap is reported but not fatal.
    opts.check = false;
    EXPECT_TRUE(report::buildCampaignReport(sweep, opts)
                    .problems.empty());
}

// --- the CLI end to end ----------------------------------------------

#ifdef VOLTBOOT_CLI_PATH

struct CliResult
{
    int exit_code;
    std::string out;
    std::string err;
};

CliResult
runCli(const std::string &args, const std::string &dir)
{
    const std::string out_path = dir + "/cli_stdout.txt";
    const std::string err_path = dir + "/cli_stderr.txt";
    const std::string cmd = std::string(VOLTBOOT_CLI_PATH) + " " + args +
                            " > " + out_path + " 2> " + err_path;
    const int status = std::system(cmd.c_str());
    CliResult r;
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    r.out = readFile(out_path);
    r.err = readFile(err_path);
    return r;
}

TEST(Cli, ReportUsageErrorsExitTwo)
{
    const std::string dir = tempDir("cli_usage");
    EXPECT_EQ(runCli("report", dir).exit_code, 2);
    EXPECT_EQ(runCli("report bogus file", dir).exit_code, 2);
    EXPECT_EQ(runCli("report trace f.jsonl --format prom", dir)
                  .exit_code,
              2);
    EXPECT_EQ(runCli("report trace f.jsonl --bogus", dir).exit_code, 2);
    // The retention kernel is not user-selectable.
    EXPECT_EQ(runCli("sweep --retention-path fast", dir).exit_code, 2);
    EXPECT_EQ(runCli("attack --retention-path reference", dir).exit_code,
              2);
    EXPECT_EQ(runCli("attack --temp nan", dir).exit_code, 2);
    // A worker count past unsigned range is refused, not wrapped.
    EXPECT_EQ(runCli("sweep --grid seeds=1 --jobs 4294967296", dir)
                  .exit_code,
              2);
    EXPECT_EQ(runCli("sweep --grid seeds=1 --jobs 0x100000000", dir)
                  .exit_code,
              2);
    // There is no throughput baseline to compare against.
    EXPECT_EQ(runCli("report campaign s.json --baseline b.json", dir)
                  .exit_code,
              2);
    // retention takes --target sram|dram and nothing else.
    EXPECT_EQ(runCli("retention --tech dram", dir).exit_code, 2);
    EXPECT_EQ(runCli("retention --target dcache", dir).exit_code, 2);
    EXPECT_EQ(runCli("retention --target dram", dir).exit_code, 0);
    // A readable usage hint lands on stderr.
    EXPECT_NE(runCli("report", dir).err.find("usage:"),
              std::string::npos);
}

TEST(Cli, ColdBootScoresTheOneTrialSweep)
{
    const std::string dir = tempDir("cli_coldboot");
    const CliResult cli = runCli("coldboot --temp -140 --off-ms 0.5", dir);
    ASSERT_EQ(cli.exit_code, 0) << cli.err;

    CampaignConfig cfg;
    cfg.jobs = 1;
    const CampaignResult sweep =
        Campaign(SweepGrid::parse("attack=coldboot;temp=-140;off-ms=0.5"),
                 std::move(cfg))
            .run();
    ASSERT_EQ(sweep.records.size(), 1u);
    EXPECT_NE(cli.out.find("error vs stored pattern: " +
                           TextTable::pct(sweep.records[0].bit_error_rate) +
                           " "),
              std::string::npos)
        << cli.out;
}

TEST(Cli, ColdBootTakesTheTargetOfTheOneTrialSweep)
{
    const std::string dir = tempDir("cli_coldboot_target");
    const CliResult cli =
        runCli("coldboot --target icache --temp -110 --off-ms 20", dir);
    ASSERT_EQ(cli.exit_code, 0) << cli.err;

    CampaignConfig cfg;
    cfg.jobs = 1;
    const CampaignResult sweep =
        Campaign(SweepGrid::parse(
                     "target=icache;attack=coldboot;temp=-110;off-ms=20"),
                 std::move(cfg))
            .run();
    ASSERT_EQ(sweep.records.size(), 1u);
    // 9.92%; the dcache trial reads 10.02%.
    EXPECT_NE(cli.out.find("error vs stored pattern: " +
                           TextTable::pct(sweep.records[0].bit_error_rate) +
                           " "),
              std::string::npos)
        << cli.out;

    // Cold boot reads back an L1 data array only.
    EXPECT_EQ(runCli("coldboot --target tlb", dir).exit_code, 2);
}

TEST(Cli, ReportTraceChecksAndWritesToStdout)
{
    const std::string dir = tempDir("cli_trace");
    const std::string trace_path = dir + "/trace.jsonl";

    // A real single-trial trace via the library (fast, deterministic).
    trace::MemoryTraceSink sink;
    {
        trace::Scope scope(sink);
        runTrial(SweepGrid::parse(
                     "board=pi4;attack=voltboot;off-ms=5;seeds=1")
                     .at(0),
                 0x5eed);
    }
    CampaignResult::writeFile(trace_path,
                              trace::toJsonl(sink.events()));

    const CliResult ok =
        runCli("report trace " + trace_path + " --check", dir);
    EXPECT_EQ(ok.exit_code, 0) << ok.err;
    EXPECT_NE(ok.out.find("# Trace report"), std::string::npos);
    EXPECT_NE(ok.out.find("PASS"), std::string::npos);

    // `--out -` is the default; an explicit file works too.
    const CliResult filed = runCli("report trace " + trace_path +
                                       " --out " + dir + "/report.md",
                                   dir);
    EXPECT_EQ(filed.exit_code, 0);
    EXPECT_NE(readFile(dir + "/report.md").find("# Trace report"),
              std::string::npos);

    // Unreadable input is a data error: exit 1, not a usage error.
    EXPECT_EQ(runCli("report trace " + dir + "/absent.jsonl", dir)
                  .exit_code,
              1);
}

TEST(Cli, ReportTraceNamesInvariantOnCorruptedTrace)
{
    const std::string dir = tempDir("cli_corrupt");
    const std::string trace_path = dir + "/corrupt.jsonl";

    // A probe-held rail that dips below its own droop minimum.
    std::vector<trace::TraceEvent> events;
    events.push_back(instantAt("power", "probe_attach", 0.0,
                               {{"domain", "VDD_CORE"},
                                {"voltage_v", 0.8}}));
    events.push_back(instantAt("power", "probe_transient", 0.001,
                               {{"domain", "VDD_CORE"},
                                {"v_min", 0.7},
                                {"v_settled", 0.78}}));
    events.push_back(counterAt("voltage.VDD_CORE", 0.002, 0.1));
    CampaignResult::writeFile(trace_path, trace::toJsonl(events));

    const CliResult r =
        runCli("report trace " + trace_path + " --check", dir);
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("probe_hold"), std::string::npos) << r.err;

    // Without --check the same trace renders fine.
    EXPECT_EQ(runCli("report trace " + trace_path, dir).exit_code, 0);
}

TEST(Cli, ReportCampaignEndToEnd)
{
    const std::string dir = tempDir("cli_campaign");
    const std::string traces = dir + "/traces";

    const CliResult sweep = runCli(
        "sweep --grid \"board=pi4;attack=voltboot,coldboot;off-ms=5;"
        "seeds=1\" --jobs 2 --timing --quiet --out " +
            dir + "/sweep.json --trace-dir " + traces,
        dir);
    ASSERT_EQ(sweep.exit_code, 0) << sweep.err;

    const CliResult rep = runCli("report campaign " + dir +
                                     "/sweep.json --trace-dir " +
                                     traces + " --check",
                                 dir);
    EXPECT_EQ(rep.exit_code, 0) << rep.err;
    EXPECT_NE(rep.out.find("# Campaign report"), std::string::npos);
    EXPECT_NE(rep.out.find("invariant check: PASS"), std::string::npos);
    EXPECT_NE(rep.out.find("## Wall clock"), std::string::npos);

    // Prometheus exposition of the sweep's metrics snapshot.
    const CliResult prom = runCli(
        "report campaign " + dir + "/sweep.json --format prom", dir);
    EXPECT_EQ(prom.exit_code, 0) << prom.err;
    EXPECT_NE(prom.out.find("# TYPE voltboot_campaign_trial_wall_s "
                            "summary"),
              std::string::npos);

    // `-` for --metrics goes to stdout.
    const CliResult metrics = runCli(
        "sweep --grid \"board=pi4;attack=voltboot;off-ms=5;seeds=1\" "
        "--jobs 1 --quiet --metrics -",
        dir);
    EXPECT_EQ(metrics.exit_code, 0) << metrics.err;
    EXPECT_NE(metrics.out.find("\"counters\""), std::string::npos);
}

TEST(Cli, AttackMetricsReportStepWallTime)
{
    const std::string dir = tempDir("cli_attack_metrics");
    const CliResult r =
        runCli("attack --board pi4 --target dcache --metrics -", dir);
    EXPECT_EQ(r.exit_code, 0) << r.err;
    // One sample per step: this attack's total time in it.
    EXPECT_NE(r.out.find("\"core.wall_s.attack.step3_power_cycle\": "
                         "{\"count\": 1,"),
              std::string::npos)
        << r.out;
    EXPECT_EQ(r.out.find("core.wall_s.coldboot.power_cycle"),
              std::string::npos);
}

TEST(Cli, SweepListAxesEnumeratesEveryAxis)
{
    const std::string dir = tempDir("cli_axes");
    const CliResult r = runCli("sweep --list-axes", dir);
    EXPECT_EQ(r.exit_code, 0) << r.err;
    for (const char *axis :
         {"board", "target", "attack", "temp", "off-ms", "current",
          "impedance-mohm", "glitch-off-ns", "glitch-width-ns",
          "glitch-depth", "key", "seeds"})
        EXPECT_NE(r.out.find(axis), std::string::npos) << axis;
    EXPECT_NE(r.out.find("unit"), std::string::npos);
    EXPECT_NE(r.out.find("Enumeration order"), std::string::npos);
}

TEST(Cli, GlitchSweepTracesPassTheChecker)
{
    const std::string dir = tempDir("cli_glitch");
    const std::string traces = dir + "/traces";
    const CliResult sweep = runCli(
        "sweep --grid \"attack=glitch;glitch-off-ns=109;"
        "glitch-width-ns=2;glitch-depth=0.04,0.5;seeds=1\" --jobs 1 "
        "--quiet --out " +
            dir + "/sweep.json --trace-dir " + traces,
        dir);
    ASSERT_EQ(sweep.exit_code, 0) << sweep.err;
    for (const char *trial :
         {"/trial_000000.jsonl", "/trial_000001.jsonl"}) {
        const CliResult check =
            runCli("report trace " + traces + trial +
                       " --check --out " + dir + "/report.md",
                   dir);
        EXPECT_EQ(check.exit_code, 0) << trial << ": " << check.err;
    }
}

TEST(Cli, SweepPrintsOneSummaryLinePerFamily)
{
    const std::string dir = tempDir("cli_families");
    const CliResult r = runCli(
        "sweep --grid \"attack=voltboot,coldboot,glitch,static-extract,"
        "voltage-coupling,key-recovery;glitch-off-ns=109;"
        "glitch-width-ns=2;glitch-depth=0.5;undervolt-depth=0.45;"
        "hold-ns=400;seeds=1\" --jobs 1 --quiet",
        dir);
    ASSERT_EQ(r.exit_code, 0) << r.err;
    EXPECT_NE(r.out.find("\nkeys: 2 planted, 1 found, 1 exact\n"
                         "glitch: 1 trials, 0 bypassed\n"
                         "static-extract: 1 trials, 1 frozen\n"
                         "coupling: 1 trials, 16 CPA key bytes recovered\n"
                         "key-recovery: 1 trials, 0 exact keys\n"),
              std::string::npos)
        << r.out;
}

TEST(Cli, ReportRejectsDeeplyNestedJson)
{
    const std::string dir = tempDir("cli_deep");
    const std::string path = dir + "/deep.json";
    std::ofstream(path) << std::string(30000, '[');
    for (const std::string kind : {"campaign", "trace"}) {
        const CliResult r = runCli("report " + kind + " " + path, dir);
        EXPECT_EQ(r.exit_code, 1) << kind << ": " << r.err;
        EXPECT_NE(r.err.find("nesting deeper than"), std::string::npos)
            << kind << ": " << r.err;
    }
}

#endif // VOLTBOOT_CLI_PATH

} // namespace
