/**
 * @file
 * Telemetry-layer tests: the production half of the observability
 * loop. Covers the lock-free counter blocks (no-op without a
 * WorkerScope, monotonic totals across scope churn, multithreaded
 * sums, hash-stat draining), the campaign monitor (heartbeat schema
 * round trip through the report-layer reader, /progress per-axis
 * decode, /metrics snapshot naming), and the embedded HTTP server
 * (ephemeral-port bind, routing, query-string stripping, 404/405).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "report/heartbeat.hh"
#include "report/json.hh"
#include "report/prometheus.hh"
#include "telemetry/counters.hh"
#include "telemetry/http_server.hh"
#include "telemetry/monitor.hh"

using namespace voltboot;
using telemetry::Counter;

namespace
{

std::string
tempDir(const std::string &name)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("voltboot_telemetry_" + name))
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Minimal HTTP/1.0 GET client for exercising the embedded server. */
std::string
httpGet(uint16_t port, const std::string &request_line)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::string req = request_line + "\r\n\r\n";
    EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        response.append(buf, static_cast<size_t>(n));
    ::close(fd);
    return response;
}

} // namespace

// --- counter blocks --------------------------------------------------

TEST(Counters, AddIsANoOpWithoutAWorkerScope)
{
    telemetry::resetCounters();
    telemetry::add(Counter::TrialsWon, 5);
    EXPECT_EQ(telemetry::totals().get(Counter::TrialsWon), 0u);
}

TEST(Counters, AddAccumulatesInsideAScopeAndSurvivesIt)
{
    telemetry::resetCounters();
    {
        telemetry::WorkerScope scope;
        telemetry::add(Counter::TrialsCompleted);
        telemetry::add(Counter::CellsProcessed, 1024);
    }
    // Retired workers keep their counts: totals stay monotonic.
    const telemetry::CounterTotals t = telemetry::totals();
    EXPECT_EQ(t.get(Counter::TrialsCompleted), 1u);
    EXPECT_EQ(t.get(Counter::CellsProcessed), 1024u);

    // A fresh scope (reusing the pooled block) keeps adding on top.
    {
        telemetry::WorkerScope scope;
        telemetry::add(Counter::TrialsCompleted);
    }
    EXPECT_EQ(telemetry::totals().get(Counter::TrialsCompleted), 2u);

    telemetry::resetCounters();
    EXPECT_EQ(telemetry::totals().get(Counter::TrialsCompleted), 0u);
    EXPECT_EQ(telemetry::totals().get(Counter::CellsProcessed), 0u);
}

TEST(Counters, ScopesNestAndRestoreThePreviousBlock)
{
    telemetry::resetCounters();
    telemetry::WorkerScope outer;
    telemetry::add(Counter::TrialsStarted);
    {
        telemetry::WorkerScope inner;
        telemetry::add(Counter::TrialsStarted);
    }
    telemetry::add(Counter::TrialsStarted); // back on the outer block
    EXPECT_EQ(telemetry::totals().get(Counter::TrialsStarted), 3u);
    telemetry::resetCounters();
}

TEST(Counters, MultithreadedAddsSumExactly)
{
    telemetry::resetCounters();
    constexpr unsigned kThreads = 4;
    constexpr uint64_t kAdds = 10000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([] {
            telemetry::WorkerScope scope;
            for (uint64_t i = 0; i < kAdds; ++i)
                telemetry::add(Counter::CellsProcessed, 2);
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(telemetry::totals().get(Counter::CellsProcessed),
              kThreads * kAdds * 2);
    telemetry::resetCounters();
}

TEST(Counters, HashStatsDrainIntoTheBlock)
{
    telemetry::resetCounters();
    telemetry::WorkerScope scope;
    telemetry::noteHashBatch(8);
    telemetry::noteHashBatch(16);
    // Not visible until the owning kernel drains them.
    EXPECT_EQ(telemetry::totals().get(Counter::HashBatches), 0u);
    telemetry::drainHashStats();
    EXPECT_EQ(telemetry::totals().get(Counter::HashBatches), 2u);
    EXPECT_EQ(telemetry::totals().get(Counter::HashLanes), 24u);
    // Drain is move semantics: a second drain adds nothing.
    telemetry::drainHashStats();
    EXPECT_EQ(telemetry::totals().get(Counter::HashBatches), 2u);
    telemetry::resetCounters();
}

TEST(Counters, HashStatsFromOutsideAnyScopeAreNotCredited)
{
    telemetry::resetCounters();
    telemetry::noteHashBatch(32); // no scope: belongs to nobody
    {
        telemetry::WorkerScope scope;
        telemetry::drainHashStats();
        EXPECT_EQ(telemetry::totals().get(Counter::HashLanes), 0u);
        EXPECT_EQ(telemetry::totals().get(Counter::HashBatches), 0u);
    }
    EXPECT_EQ(telemetry::totals().get(Counter::HashLanes), 0u);
    telemetry::resetCounters();
}

TEST(Counters, AnInnerScopeLeavesTheOuterScopesHashStatsToIt)
{
    telemetry::resetCounters();
    {
        telemetry::WorkerScope outer;
        telemetry::noteHashBatch(8);
        telemetry::WorkerScope inner;
        EXPECT_EQ(telemetry::totals().get(Counter::HashLanes), 8u);
        telemetry::noteHashBatch(4);
    }
    EXPECT_EQ(telemetry::totals().get(Counter::HashLanes), 12u);
    telemetry::resetCounters();
}

TEST(Counters, EveryCounterHasAStableSnakeCaseName)
{
    for (unsigned i = 0; i < telemetry::kCounterCount; ++i) {
        const char *name =
            telemetry::counterName(static_cast<Counter>(i));
        ASSERT_NE(name, nullptr);
        for (const char *c = name; *c; ++c)
            EXPECT_TRUE((*c >= 'a' && *c <= 'z') || *c == '_' ||
                        (*c >= '0' && *c <= '9'))
                << "counter " << i << " name '" << name << "'";
    }
    EXPECT_STREQ(telemetry::counterName(Counter::TrialsWon),
                 "trials_won");
    EXPECT_STREQ(telemetry::counterName(Counter::KernelAvx512),
                 "kernel_invocations_avx512");
}

// --- campaign monitor ------------------------------------------------

namespace
{

telemetry::MonitorConfig
gridConfig()
{
    telemetry::MonitorConfig cfg;
    cfg.interval_s = 0.01;
    cfg.total_trials = 24;
    cfg.campaign_seed = 77;
    cfg.grid_spec = "board=x seeds=4";
    cfg.axes = {{"attack", 2}, {"off_ms", 3}, {"seeds", 4}};
    return cfg;
}

} // namespace

TEST(Monitor, HeartbeatLineRoundTripsThroughTheReportReader)
{
    telemetry::resetCounters();
    {
        telemetry::WorkerScope scope;
        telemetry::add(Counter::TrialsStarted, 13);
        telemetry::add(Counter::TrialsCompleted, 13);
        telemetry::add(Counter::TrialsWon, 11);
        telemetry::add(Counter::TrialsFailed, 2);
        telemetry::add(Counter::CellsProcessed, 4096);
    }
    telemetry::CampaignMonitor monitor(gridConfig());
    telemetry::TelemetrySnapshot snap = monitor.latest();
    snap.seq = 3;
    snap.final_sample = true;
    snap.trials_per_sec = 6.5;
    const std::string line = monitor.heartbeatLine(snap);

    // The line is one strict-JSON object the report layer reads back.
    const report::JsonValue v = report::parseJson(line, "hb", 1);
    EXPECT_EQ(v.find("schema")->text, "voltboot-heartbeat-v1");

    const std::string dir = tempDir("hb_roundtrip");
    std::ofstream(dir + "/hb.jsonl") << line << "\n";
    const std::vector<report::Heartbeat> beats =
        report::readHeartbeats(dir + "/hb.jsonl");
    ASSERT_EQ(beats.size(), 1u);
    EXPECT_EQ(beats[0].seq, 3u);
    EXPECT_TRUE(beats[0].final_sample);
    EXPECT_EQ(beats[0].campaign_seed, 77u);
    EXPECT_EQ(beats[0].total_trials, 24u);
    EXPECT_EQ(beats[0].started, 13u);
    EXPECT_EQ(beats[0].won, 11u);
    EXPECT_EQ(beats[0].failed, 2u);
    EXPECT_EQ(beats[0].counters.at("cells_processed"), 4096u);
    EXPECT_DOUBLE_EQ(beats[0].trials_per_sec, 6.5);
    std::filesystem::remove_all(dir);
    telemetry::resetCounters();
}

TEST(Monitor, ProgressJsonDecodesPerAxisPositions)
{
    telemetry::resetCounters();
    {
        telemetry::WorkerScope scope;
        telemetry::add(Counter::TrialsCompleted, 13);
    }
    telemetry::CampaignMonitor monitor(gridConfig());
    const report::JsonValue v =
        report::parseJson(monitor.progressJson(), "progress", 1);
    EXPECT_EQ(v.find("total")->number, 24.0);
    EXPECT_EQ(v.find("done")->number, 13.0);
    const report::JsonValue *axes = v.find("axes");
    ASSERT_NE(axes, nullptr);
    ASSERT_EQ(axes->items.size(), 3u);
    // 13 trials into a 2x3x4 grid, slowest-first: attack 13/12 = 1,
    // off_ms (13%12)/4 = 0, seeds 13%4 = 1.
    EXPECT_EQ(axes->items[0].find("name")->text, "attack");
    EXPECT_EQ(axes->items[0].find("position")->number, 1.0);
    EXPECT_EQ(axes->items[1].find("position")->number, 0.0);
    EXPECT_EQ(axes->items[2].find("position")->number, 1.0);
    telemetry::resetCounters();
}

TEST(Monitor, MetricsSnapshotRendersAsPrometheus)
{
    telemetry::resetCounters();
    {
        telemetry::WorkerScope scope;
        telemetry::add(Counter::TrialsCompleted, 7);
    }
    telemetry::CampaignMonitor monitor(gridConfig());
    const std::string text =
        report::toPrometheus(monitor.metricsSnapshot());
    EXPECT_NE(text.find("voltboot_telemetry_trials_completed 7\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE voltboot_telemetry_trials_total gauge"),
              std::string::npos);
    telemetry::resetCounters();
}

TEST(Monitor, SamplerAppendsHeartbeatsAndAFinalSample)
{
    telemetry::resetCounters();
    const std::string dir = tempDir("hb_sampler");
    telemetry::MonitorConfig cfg = gridConfig();
    cfg.heartbeat_path = dir + "/hb.jsonl";
    {
        telemetry::CampaignMonitor monitor(cfg);
        monitor.start();
        telemetry::WorkerScope scope;
        telemetry::add(Counter::TrialsCompleted, 24);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        monitor.stop();
    }
    const std::vector<report::Heartbeat> beats =
        report::readHeartbeats(dir + "/hb.jsonl");
    ASSERT_GE(beats.size(), 2u); // at least one timer + the final
    for (size_t i = 0; i < beats.size(); ++i)
        EXPECT_EQ(beats[i].seq, i + 1);
    EXPECT_TRUE(beats.back().final_sample);
    EXPECT_EQ(beats.back().completed, 24u);
    for (size_t i = 0; i + 1 < beats.size(); ++i)
        EXPECT_FALSE(beats[i].final_sample);
    std::filesystem::remove_all(dir);
    telemetry::resetCounters();
}

// --- embedded HTTP server --------------------------------------------

TEST(HttpServer, ServesRoutesOnAnEphemeralPort)
{
    telemetry::HttpServer server(
        0, [](const std::string &path) -> telemetry::HttpResponse {
            if (path == "/healthz")
                return {200, "text/plain; charset=utf-8", "ok\n"};
            if (path == "/echo")
                return {200, "application/json", "{\"here\": true}"};
            return {404, "text/plain; charset=utf-8", "not found\n"};
        });
    ASSERT_GT(server.port(), 0);

    const std::string ok =
        httpGet(server.port(), "GET /healthz HTTP/1.0");
    EXPECT_NE(ok.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_NE(ok.find("Content-Length: 3"), std::string::npos);
    EXPECT_NE(ok.find("\r\n\r\nok\n"), std::string::npos);

    // Query strings are stripped before dispatch.
    const std::string query =
        httpGet(server.port(), "GET /echo?verbose=1 HTTP/1.0");
    EXPECT_NE(query.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_NE(query.find("application/json"), std::string::npos);
    EXPECT_NE(query.find("{\"here\": true}"), std::string::npos);

    const std::string missing =
        httpGet(server.port(), "GET /nope HTTP/1.0");
    EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);

    const std::string post =
        httpGet(server.port(), "POST /healthz HTTP/1.0");
    EXPECT_NE(post.find("HTTP/1.0 405"), std::string::npos);

    server.stop();
    server.stop(); // idempotent
}

TEST(HttpServer, MalformedRequestGetsA400)
{
    telemetry::HttpServer server(
        0, [](const std::string &) -> telemetry::HttpResponse {
            return {200, "text/plain; charset=utf-8", "ok\n"};
        });
    const std::string bad = httpGet(server.port(), "NONSENSE");
    EXPECT_NE(bad.find("HTTP/1.0 400"), std::string::npos);
}
