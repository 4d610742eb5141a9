// tracing_test.cpp — end-to-end causal tracing and the alarm flight
// recorder: W3C traceparent parse/format, cross-thread context propagation
// (fork_join chunks, ServingQueue executors, coalesced link-spans), the
// span-tree exporter, child-span coverage of an enrollment, HTTP trace-id
// plumbing (X-PSA-Trace-Id, traceparent adoption), /events stale-cursor
// metadata, OpenMetrics exemplars, and the per-chip blackbox bundle
// (determinism, drain semantics, HTTP endpoint).
//
// These tests run under the TSan matrix job: the propagation tests
// deliberately hand contexts across real threads (pool workers, serving
// executors, HTTP connection workers) so a racy install/restore shows up
// as a report, not a flake.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <future>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/pipeline.hpp"
#include "common/parallel.hpp"
#include "fleet/fleet.hpp"
#include "fleet/fleet_http.hpp"
#include "fixtures.hpp"
#include "net/http_exposition.hpp"
#include "net/serving.hpp"
#include "obs/events.hpp"
#include "obs/obs.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace psa {
namespace {

/// Send `request` verbatim to 127.0.0.1:port and return the full response
/// ("" on connect failure). Raw bytes in, raw bytes out — the traceparent
/// tests need full control of the header block.
std::string raw_request(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  (void)::send(fd, request.data(), request.size(), 0);
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

std::string http_get(std::uint16_t port, const std::string& target) {
  return raw_request(
      port, "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

/// Value of a response header (case-sensitive match on the canonical name
/// the server emits), "" when absent.
std::string header_value(const std::string& resp, const std::string& name) {
  const std::string key = "\r\n" + name + ": ";
  const std::size_t at = resp.find(key);
  if (at == std::string::npos) return "";
  const std::size_t start = at + key.size();
  const std::size_t end = resp.find("\r\n", start);
  return resp.substr(start, end - start);
}

std::string body_of(const std::string& resp) {
  const std::size_t at = resp.find("\r\n\r\n");
  return at == std::string::npos ? "" : resp.substr(at + 4);
}

bool is_hex(const std::string& s) {
  for (const char c : s) {
    const bool ok =
        (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;
  }
  return !s.empty();
}

/// Drop every line carrying a wall-clock value (key ends `_us"`) — the
/// only non-deterministic lines in a blackbox bundle by construction.
std::string strip_wallclock_lines(const std::string& bundle) {
  std::istringstream in(bundle);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("_us\":") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// TraceContext + traceparent

TEST(TraceContext, MakeContextIsValidAndDistinct) {
  const obs::TraceContext a = obs::make_trace_context();
  const obs::TraceContext b = obs::make_trace_context();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(a.same_trace(b));
  EXPECT_EQ(obs::trace_id_hex(a).size(), 32u);
  EXPECT_EQ(obs::span_id_hex(a.span_id).size(), 16u);
}

TEST(TraceContext, TraceparentRoundTrips) {
  const obs::TraceContext ctx = obs::make_trace_context();
  const std::string header = obs::format_traceparent(ctx);
  ASSERT_EQ(header.size(), 55u);  // 2 + 1 + 32 + 1 + 16 + 1 + 2
  EXPECT_EQ(header.substr(0, 3), "00-");

  obs::TraceContext parsed;
  ASSERT_TRUE(obs::parse_traceparent(header, &parsed));
  EXPECT_EQ(parsed.trace_hi, ctx.trace_hi);
  EXPECT_EQ(parsed.trace_lo, ctx.trace_lo);
  EXPECT_EQ(parsed.span_id, ctx.span_id);
}

TEST(TraceContext, TraceparentRejectsMalformedHeaders) {
  obs::TraceContext out;
  const std::string good =
      "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01";
  ASSERT_TRUE(obs::parse_traceparent(good, &out));

  // Wrong length, bad separators, reserved version, zero ids, non-hex.
  EXPECT_FALSE(obs::parse_traceparent("", &out));
  EXPECT_FALSE(obs::parse_traceparent(good.substr(0, 54), &out));
  EXPECT_FALSE(obs::parse_traceparent(good + "0", &out));
  std::string bad = good;
  bad[2] = '_';
  EXPECT_FALSE(obs::parse_traceparent(bad, &out));
  EXPECT_FALSE(obs::parse_traceparent(
      "ff-0123456789abcdef0123456789abcdef-0123456789abcdef-01", &out));
  EXPECT_FALSE(obs::parse_traceparent(
      "00-00000000000000000000000000000000-0123456789abcdef-01", &out));
  EXPECT_FALSE(obs::parse_traceparent(
      "00-0123456789abcdef0123456789abcdef-0000000000000000-01", &out));
  EXPECT_FALSE(obs::parse_traceparent(
      "00-0123456789abcdef0123456789abcdeZ-0123456789abcdef-01", &out));
}

TEST(TraceContext, ScopeInstallsAndRestores) {
  // A fresh thread starts with no active context; a scope installs one for
  // exactly its extent, nesting restores the outer context.
  std::thread([] {
    EXPECT_FALSE(obs::current_trace_context().valid());
    const obs::TraceContext outer = obs::make_trace_context();
    {
      obs::TraceContextScope outer_scope(outer);
      EXPECT_EQ(obs::current_trace_context().span_id, outer.span_id);
      const obs::TraceContext inner = obs::make_trace_context();
      {
        obs::TraceContextScope inner_scope(inner);
        EXPECT_EQ(obs::current_trace_context().span_id, inner.span_id);
      }
      EXPECT_EQ(obs::current_trace_context().span_id, outer.span_id);
    }
    EXPECT_FALSE(obs::current_trace_context().valid());
  }).join();
}

#if PSA_OBS_ENABLED

/// Span recording on for one test, recorder wiped afterwards.
class ObsEnabledGuard {
 public:
  ObsEnabledGuard() {
    obs::TraceRecorder::global().clear();
    obs::set_enabled(true);
  }
  ~ObsEnabledGuard() {
    obs::set_enabled(false);
    obs::TraceRecorder::global().clear();
  }
};

// ---------------------------------------------------------------------------
// Cross-thread propagation

TEST(TracePropagation, ForkJoinChunksJoinTheCallersTrace) {
  tests::ThreadCountGuard thread_guard;
  set_thread_count(4);
  ObsEnabledGuard guard;

  obs::TraceContext root_ctx;
  {
    obs::Span root("tracing_test.root");
    root_ctx = root.context();
    std::vector<double> v(512, 1.0);
    parallel_for(0, v.size(), 0,
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) v[i] *= 2.0;
                 });
  }
  ASSERT_TRUE(root_ctx.valid());

  // Every parallel.chunk span in the root's trace parents under the root
  // span, whichever thread it ran on — the chunk count depends on the pool
  // but at least one chunk must have been recorded.
  std::size_t chunks = 0;
  for (const obs::SpanRecord& rec :
       obs::TraceRecorder::global().snapshot_trace(root_ctx.trace_hi,
                                                   root_ctx.trace_lo)) {
    if (std::string(rec.name) != "parallel.chunk") continue;
    ++chunks;
    EXPECT_EQ(rec.trace_hi, root_ctx.trace_hi);
    EXPECT_EQ(rec.trace_lo, root_ctx.trace_lo);
    EXPECT_EQ(rec.parent_span_id, root_ctx.span_id)
        << "chunk span did not parent under the caller's span";
  }
  EXPECT_GE(chunks, 1u);
}

TEST(TracePropagation, ServingExecutorInheritsSubmitterContext) {
  ObsEnabledGuard guard;
  net::ServingConfig cfg;
  cfg.workers = 1;
  net::ServingQueue queue(cfg);

  const obs::TraceContext submitter = obs::make_trace_context();
  obs::TraceContext seen_by_job;
  std::optional<net::ServingQueue::Ticket> ticket;
  {
    obs::TraceContextScope scope(submitter);
    ticket = queue.submit("", [&seen_by_job] {
      seen_by_job = obs::current_trace_context();
      return net::ServingResult{200, "text/plain", "ok"};
    });
  }
  ASSERT_TRUE(ticket.has_value());
  EXPECT_FALSE(ticket->coalesced);
  EXPECT_TRUE(ticket->exec_ctx.same_trace(submitter));
  ASSERT_EQ(ticket->result.get().body, "ok");

  // The executor thread ran the job inside the submitter's trace, under a
  // serving.execute span belonging to that same trace.
  EXPECT_TRUE(seen_by_job.same_trace(submitter));
  std::size_t exec_spans = 0;
  for (const obs::SpanRecord& rec :
       obs::TraceRecorder::global().snapshot_trace(submitter.trace_hi,
                                                   submitter.trace_lo)) {
    if (std::string(rec.name) == "serving.execute") ++exec_spans;
  }
  EXPECT_EQ(exec_spans, 1u);
}

TEST(TracePropagation, CoalescedSubmitterRecordsLinkSpan) {
  ObsEnabledGuard guard;
  net::ServingConfig cfg;
  cfg.workers = 1;
  net::ServingQueue queue(cfg);

  // Park the single worker on the group so the second submission finds the
  // key pending and coalesces instead of executing.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  const obs::TraceContext winner = obs::make_trace_context();
  std::optional<net::ServingQueue::Ticket> first;
  {
    obs::TraceContextScope scope(winner);
    first = queue.submit("scan:deadbeef", [gate] {
      gate.wait();
      return net::ServingResult{200, "text/plain", "winner"};
    });
  }
  ASSERT_TRUE(first.has_value());

  const obs::TraceContext loser = obs::make_trace_context();
  std::optional<net::ServingQueue::Ticket> second;
  {
    obs::TraceContextScope scope(loser);
    second = queue.submit("scan:deadbeef", [] {
      return net::ServingResult{500, "text/plain", "never runs"};
    });
  }
  release.set_value();

  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->coalesced);
  // The coalesced ticket carries the winning group's context...
  EXPECT_TRUE(second->exec_ctx.same_trace(winner));
  EXPECT_EQ(second->result.get().body, "winner");
  EXPECT_EQ(first->result.get().body, "winner");

  // ...and the loser's trace holds a link-span pointing at it.
  std::size_t links = 0;
  for (const obs::SpanRecord& rec :
       obs::TraceRecorder::global().snapshot_trace(loser.trace_hi,
                                                   loser.trace_lo)) {
    if (std::string(rec.name) != "serving.coalesced.link") continue;
    ++links;
    EXPECT_EQ(rec.link_trace_hi, winner.trace_hi);
    EXPECT_EQ(rec.link_trace_lo, winner.trace_lo);
  }
  EXPECT_EQ(links, 1u);
}

TEST(TraceTree, ExportNestsChildrenUnderTheirParents) {
  ObsEnabledGuard guard;
  obs::TraceContext root_ctx;
  {
    obs::Span root("tracing_test.tree_root");
    root_ctx = root.context();
    obs::Span child("tracing_test.tree_child", {{"k", 1}});
  }
  ASSERT_EQ(obs::TraceRecorder::global()
                .snapshot_trace(root_ctx.trace_hi, root_ctx.trace_lo)
                .size(),
            2u);

  std::ostringstream os;
  obs::TraceRecorder::global().write_trace_tree_json(root_ctx.trace_hi,
                                                     root_ctx.trace_lo, os);
  const std::string tree = os.str();
  const std::size_t root_at = tree.find("tracing_test.tree_root");
  const std::size_t child_at = tree.find("tracing_test.tree_child");
  ASSERT_NE(root_at, std::string::npos);
  ASSERT_NE(child_at, std::string::npos);
  EXPECT_LT(root_at, child_at) << "child rendered outside its parent";
  EXPECT_NE(tree.find(obs::trace_id_hex(root_ctx)), std::string::npos);
}

// ---------------------------------------------------------------------------
// Layer ledger: child spans account for their parent's time

TEST(TraceCoverage, EnrollChildSpansCoverTheEnrollment) {
  const sim::ChipSimulator chip = tests::make_chip();
  analysis::Pipeline pipeline(chip, tests::light_config());
  ObsEnabledGuard guard;
  pipeline.enroll(sim::Scenario::baseline(tests::kGoldenSeed));

  const std::vector<obs::SpanRecord> spans =
      obs::TraceRecorder::global().snapshot();
  const obs::SpanRecord* enroll = nullptr;
  for (const obs::SpanRecord& rec : spans) {
    if (rec.name == "pipeline.enroll") enroll = &rec;
  }
  ASSERT_NE(enroll, nullptr);
  double child_us = 0.0;
  bool fold = false;
  for (const obs::SpanRecord& rec : spans) {
    if (rec.trace_hi != enroll->trace_hi || rec.trace_lo != enroll->trace_lo ||
        rec.parent_span_id != enroll->span_id) {
      continue;
    }
    child_us += rec.dur_us;
    fold = fold || rec.name == "pipeline.enroll_fold";
  }
  EXPECT_TRUE(fold) << "the detector fold has no span";
  EXPECT_GE(child_us, 0.9 * enroll->dur_us)
      << "children cover " << child_us << " of " << enroll->dur_us << " us";
}

#endif  // PSA_OBS_ENABLED

// ---------------------------------------------------------------------------
// HTTP plumbing

TEST(TracingHttp, EveryResponseCarriesATraceId) {
  net::HttpServer server;
  server.handle("/ctx", [](const net::HttpRequest&) {
    net::HttpResponse resp;
    resp.body = obs::trace_id_hex(obs::current_trace_context()) + "\n";
    return resp;
  });
  ASSERT_TRUE(server.start());

  const std::string resp = http_get(server.port(), "/ctx");
  const std::string id = header_value(resp, "X-PSA-Trace-Id");
  ASSERT_EQ(id.size(), 32u);
  EXPECT_TRUE(is_hex(id));
  // The handler ran inside the request's context: body id == header id.
  EXPECT_EQ(body_of(resp), id + "\n");
  server.stop();
}

TEST(TracingHttp, TraceparentHeaderIsAdopted) {
  net::HttpServer server;
  server.handle("/ctx", [](const net::HttpRequest&) {
    net::HttpResponse resp;
    resp.body = obs::trace_id_hex(obs::current_trace_context()) + "\n";
    return resp;
  });
  ASSERT_TRUE(server.start());

  const std::string sent_trace = "4bf92f3577b34da6a3ce929d0e0e4736";
  const std::string resp = raw_request(
      server.port(),
      "GET /ctx HTTP/1.1\r\nHost: localhost\r\ntraceparent: 00-" +
          sent_trace + "-00f067aa0ba902b7-01\r\n\r\n");
  EXPECT_EQ(header_value(resp, "X-PSA-Trace-Id"), sent_trace);
  EXPECT_EQ(body_of(resp), sent_trace + "\n");

  // A malformed traceparent falls back to a fresh id, never a 4xx.
  const std::string bad = raw_request(
      server.port(),
      "GET /ctx HTTP/1.1\r\nHost: localhost\r\n"
      "traceparent: 00-garbage-garbage-01\r\n\r\n");
  EXPECT_NE(bad.find("200 OK"), std::string::npos);
  const std::string fresh = header_value(bad, "X-PSA-Trace-Id");
  ASSERT_EQ(fresh.size(), 32u);
  EXPECT_NE(fresh, sent_trace);
  server.stop();
}

TEST(TracingHttp, EventsMetaLineExposesOldestSeqForStaleCursors) {
  obs::EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.emit(obs::Severity::kInfo, "tracing_test.tick", {{"i", double(i)}});
  }
  // Ring of 4 holding seqs 7..10: a consumer resuming from cursor 0 has a
  // gap (0 + 1 < oldest_seq), one resuming from 6 does not.
  EXPECT_EQ(log.last_seq(), 10u);
  EXPECT_EQ(log.oldest_seq(), 7u);
  EXPECT_EQ(log.dropped(), 6u);

  net::HttpServer server;
  net::install_telemetry_endpoints(server, &log, nullptr);
  ASSERT_TRUE(server.start());
  const std::string body =
      body_of(http_get(server.port(), "/events?since=0"));
  ASSERT_FALSE(body.empty());

  // First line is the meta object; events follow, starting at oldest_seq.
  const std::string first = body.substr(0, body.find('\n'));
  EXPECT_NE(first.find("\"meta\":\"events\""), std::string::npos);
  EXPECT_NE(first.find("\"oldest_seq\":7"), std::string::npos);
  EXPECT_NE(first.find("\"last_seq\":10"), std::string::npos);
  EXPECT_NE(first.find("\"dropped\":6"), std::string::npos);
  EXPECT_NE(body.find("\"seq\":7"), std::string::npos);
  EXPECT_EQ(body.find("\"seq\":6"), std::string::npos);
  server.stop();
}

TEST(TracingHttp, MetricsRenderTraceIdExemplars) {
  obs::Histogram& h =
      obs::Registry::global().histogram("tracing_test.exemplar_us");
  h.record(5.0);
  const std::string trace = "feedfacefeedfacefeedfacefeedface";
  h.note_exemplar(5.0, trace);

  std::ostringstream os;
  obs::render_prometheus(obs::Registry::global().snapshot(), os);
  const std::string text = os.str();
  // OpenMetrics exemplar syntax on a bucket line of our histogram.
  const std::size_t at = text.find("tracing_test_exemplar_us_bucket");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(text.find("# {trace_id=\"" + trace + "\"}", at),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight recorder

/// A 4-chip fleet where chip 1 throws at tick 2 — a deterministic freeze
/// trigger (quarantine) that needs no detector to fire.
std::vector<fleet::ChipSpec> faulting_fleet() {
  std::vector<fleet::ChipSpec> specs = fleet::make_fleet_specs(
      4, 2, tests::kGoldenSeed, tests::light_config());
  specs[1].tick_hook = [](std::size_t tick) {
    if (tick == 2) throw std::runtime_error("simulated chip fault");
  };
  return specs;
}

TEST(FlightRecorder, QuarantineFreezesTheBlackbox) {
  tests::ThreadCountGuard guard;
  fleet::FleetConfig cfg;
  cfg.per_chip_metrics = false;
  fleet::FleetEngine engine(faulting_fleet(), cfg);
  ASSERT_EQ(engine.run_ticks(4), 4u);

  ASSERT_TRUE(engine.session(1).has_blackbox());
  EXPECT_FALSE(engine.session(0).has_blackbox());
  const std::string bundle = engine.session(1).blackbox_json();
  EXPECT_NE(bundle.find("\"chip\": 1"), std::string::npos);
  EXPECT_NE(bundle.find("\"reason\": \"quarantined\""), std::string::npos);
  EXPECT_NE(bundle.find("\"quarantine_cause\": \"exception\""),
            std::string::npos);
  EXPECT_NE(bundle.find("\"frozen_at_us\""), std::string::npos);
  // Ticks 0 and 1 completed before the throw: two window records.
  EXPECT_NE(bundle.find("\"tick\": 0"), std::string::npos);
  EXPECT_NE(bundle.find("\"tick\": 1"), std::string::npos);
  EXPECT_EQ(bundle.find("\"tick\": 2"), std::string::npos);

  // chips_json advertises which chips hold a frozen bundle.
  const std::string chips = engine.chips_json();
  EXPECT_NE(chips.find("\"blackbox\":true"), std::string::npos);
  EXPECT_NE(chips.find("\"blackbox\":false"), std::string::npos);
  // healthz surfaces the event-ring drop counter.
  EXPECT_NE(engine.healthz_json().find("\"events_dropped\":"),
            std::string::npos);
}

TEST(FlightRecorder, BlackboxIsDeterministicModuloWallClock) {
  tests::ThreadCountGuard guard;
  fleet::FleetConfig cfg;
  cfg.per_chip_metrics = false;
  fleet::FleetEngine a(faulting_fleet(), cfg);
  fleet::FleetEngine b(faulting_fleet(), cfg);
  ASSERT_EQ(a.run_ticks(4), 4u);
  ASSERT_EQ(b.run_ticks(4), 4u);

  const std::string ba = a.session(1).blackbox_json();
  const std::string bb = b.session(1).blackbox_json();
  ASSERT_FALSE(ba.empty());
  ASSERT_FALSE(bb.empty());
  // Same seed, same fault: byte-identical after dropping the wall-clock
  // lines (key ends _us") — z-scores, verdicts, ticks, detector slots all
  // reproduce exactly.
  EXPECT_EQ(strip_wallclock_lines(ba), strip_wallclock_lines(bb));
}

TEST(FlightRecorder, TakeFreshDrainsOnceAndWindowZeroDisables) {
  tests::ThreadCountGuard guard;
  fleet::FleetConfig cfg;
  cfg.per_chip_metrics = false;
  fleet::FleetEngine engine(faulting_fleet(), cfg);
  ASSERT_EQ(engine.run_ticks(4), 4u);

  // take_fresh returns the bundle exactly once per freeze; blackbox_json
  // keeps serving it (the HTTP endpoint is idempotent, the monitord dump
  // loop is not re-triggered).
  fleet::ChipSession& bad = engine.session(1);
  EXPECT_FALSE(bad.take_fresh_blackbox().empty());
  EXPECT_TRUE(bad.take_fresh_blackbox().empty());
  EXPECT_TRUE(bad.has_blackbox());
  EXPECT_FALSE(bad.blackbox_json().empty());

  // blackbox_window = 0 turns the recorder off entirely.
  fleet::FleetConfig off = cfg;
  off.blackbox_window = 0;
  fleet::FleetEngine disabled(faulting_fleet(), off);
  ASSERT_EQ(disabled.run_ticks(4), 4u);
  EXPECT_TRUE(disabled.session(1).quarantined());
  EXPECT_FALSE(disabled.session(1).has_blackbox());
}

TEST(FlightRecorder, BlackboxServedOverHttp) {
  tests::ThreadCountGuard guard;
  fleet::FleetConfig cfg;
  cfg.per_chip_metrics = false;
  fleet::FleetEngine engine(faulting_fleet(), cfg);
  ASSERT_EQ(engine.run_ticks(4), 4u);

  net::HttpServer server;
  fleet::install_fleet_endpoints(server, &engine);
  ASSERT_TRUE(server.start());

  const std::string hit =
      http_get(server.port(), "/fleet/chips/1/blackbox");
  EXPECT_NE(hit.find("200 OK"), std::string::npos);
  EXPECT_EQ(body_of(hit), engine.session(1).blackbox_json());

  // No frozen bundle / bad chip index / bad tail all answer 404.
  EXPECT_NE(http_get(server.port(), "/fleet/chips/0/blackbox")
                .find("404"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/fleet/chips/99/blackbox")
                .find("404"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/fleet/chips/1/bogus").find("404"),
            std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace psa
