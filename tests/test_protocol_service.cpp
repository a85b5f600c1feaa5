// The protocol service: JSON parsing, request handling, and the frozen
// v1 / structured v2 wire envelopes. Transports live in
// test_serve_tcp.cpp.
#include "compile/service.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <thread>

#include "compile/json.hpp"
#include "compile/store.hpp"
#include "core/synth_cache.hpp"
#include "obs/registry.hpp"
#include "qec/code_library.hpp"
#include "serve/cache.hpp"

namespace ftsp::compile {
namespace {

TEST(Json, ParsesFlatObjects) {
  const auto obj = parse_json_object(
      R"({"op":"sample","code":"Steane","p":0.01,"shots":100,"ok":true,)"
      R"("none":null,"esc":"a\"b\\c\ndA"})");
  EXPECT_EQ(obj.at("op").text, "sample");
  EXPECT_EQ(obj.at("code").text, "Steane");
  EXPECT_DOUBLE_EQ(obj.at("p").number, 0.01);
  EXPECT_DOUBLE_EQ(obj.at("shots").number, 100.0);
  EXPECT_TRUE(obj.at("ok").boolean);
  EXPECT_EQ(obj.at("none").kind, JsonValue::Kind::Null);
  EXPECT_EQ(obj.at("esc").text, "a\"b\\c\nd\x41");
  EXPECT_TRUE(parse_json_object("{}").empty());
  EXPECT_TRUE(parse_json_object("  { }  ").empty());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json_object(""), std::invalid_argument);
  EXPECT_THROW(parse_json_object("{"), std::invalid_argument);
  EXPECT_THROW(parse_json_object(R"({"a":1,})"), std::invalid_argument);
  EXPECT_THROW(parse_json_object(R"({"a":{"b":1}})"), std::invalid_argument);
  EXPECT_THROW(parse_json_object(R"({"a":[1]})"), std::invalid_argument);
  EXPECT_THROW(parse_json_object(R"({"a":1} extra)"), std::invalid_argument);
  EXPECT_THROW(parse_json_object(R"({"a":bogus})"), std::invalid_argument);
}

TEST(Json, WriterEscapesAndOrders) {
  JsonWriter out;
  out.field("s", "a\"b\nc");
  out.field("n", 1.5);
  out.field("u", std::uint64_t{42});
  out.field("b", true);
  out.raw_field("arr", "[1,2]");
  EXPECT_EQ(out.take(),
            R"({"s":"a\"b\nc","n":1.5,"u":42,"b":true,"arr":[1,2]})");
}

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ProtocolCompiler compiler;
    service_ = new ProtocolService();
    service_->add(compiler.compile(qec::steane()));
    service_->add(compiler.compile(qec::surface3()));
  }
  static void TearDownTestSuite() {
    delete service_;
    service_ = nullptr;
  }

  static ProtocolService* service_;
};

ProtocolService* ServiceTest::service_ = nullptr;

TEST_F(ServiceTest, ListsCodes) {
  const auto response = service_->handle_request(R"({"op":"codes"})");
  EXPECT_TRUE(response.find(R"("ok":true)") != std::string::npos);
  EXPECT_TRUE(response.find("Steane") != std::string::npos);
  EXPECT_TRUE(response.find("Surface_3") != std::string::npos);
}

TEST_F(ServiceTest, InfoReportsProvenance) {
  const auto response =
      service_->handle_request(R"({"op":"info","code":"Steane"})");
  EXPECT_NE(response.find(R"("ok":true)"), std::string::npos);
  EXPECT_NE(response.find(R"("n":7)"), std::string::npos);
  EXPECT_NE(response.find(R"("d":3)"), std::string::npos);
  EXPECT_NE(response.find("engine"), std::string::npos);
}

TEST_F(ServiceTest, SampleIsDeterministicPerSeed) {
  const std::string request =
      R"({"op":"sample","code":"Steane","p":0.02,"shots":4096,"seed":5})";
  const auto a = service_->handle_request(request);
  const auto b = service_->handle_request(request);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find(R"("ok":true)"), std::string::npos);
  EXPECT_NE(a.find("x_fails"), std::string::npos);

  const auto other = service_->handle_request(
      R"({"op":"sample","code":"Steane","p":0.02,"shots":4096,"seed":6})");
  EXPECT_NE(a, other) << "seed ignored";
}

TEST_F(ServiceTest, RateAndCircuitWork) {
  const auto rate = service_->handle_request(
      R"({"op":"rate","code":"Surface_3","p":0.01,"shots":2048})");
  EXPECT_NE(rate.find("p_logical"), std::string::npos);
  const auto qasm = service_->handle_request(
      R"({"op":"circuit","code":"Steane","format":"qasm"})");
  EXPECT_NE(qasm.find("OPENQASM"), std::string::npos);
  const auto text = service_->handle_request(
      R"({"op":"circuit","code":"Steane","format":"text"})");
  EXPECT_NE(text.find("ftsp-protocol v1"), std::string::npos);
}

TEST_F(ServiceTest, ErrorsNeverThrowAndEchoId) {
  const auto bad_op = service_->handle_request(R"({"id":7,"op":"nope"})");
  EXPECT_NE(bad_op.find(R"("id":7)"), std::string::npos);
  EXPECT_NE(bad_op.find(R"("ok":false)"), std::string::npos);
  // Op validation runs before the code lookup: a typo'd op is reported
  // as such even without a "code" field.
  EXPECT_NE(bad_op.find("unknown op 'nope'"), std::string::npos);
  const auto bad_code = service_->handle_request(
      R"({"id":"x","op":"info","code":"Nope"})");
  EXPECT_NE(bad_code.find(R"("id":"x")"), std::string::npos);
  EXPECT_NE(bad_code.find("unknown code"), std::string::npos);
  const auto not_json = service_->handle_request("garbage");
  EXPECT_NE(not_json.find(R"("ok":false)"), std::string::npos);
  // Bool/null ids are echoed as their literal tokens, not dropped.
  const auto bool_id = service_->handle_request(R"({"id":true,"op":"nope"})");
  EXPECT_NE(bool_id.find(R"("id":true)"), std::string::npos);
}

TEST_F(ServiceTest, RejectsOutOfRangeParameters) {
  for (const char* request : {
           R"({"op":"rate","code":"Steane","shots":-1})",
           R"({"op":"rate","code":"Steane","shots":1e300})",
           R"({"op":"rate","code":"Steane","shots":10.5})",
           R"({"op":"sample","code":"Steane","threads":100000})",
           R"({"op":"sample","code":"Steane","seed":"abc"})",
       }) {
    const auto response = service_->handle_request(request);
    EXPECT_NE(response.find(R"("ok":false)"), std::string::npos) << request;
  }
}

TEST_F(ServiceTest, PlusBasisServedUnderQualifiedName) {
  const ProtocolCompiler compiler;
  ProtocolService service;
  service.add(compiler.compile(qec::steane(), qec::LogicalBasis::Zero));
  service.add(compiler.compile(qec::steane(), qec::LogicalBasis::Plus));
  ASSERT_EQ(service.size(), 2u) << "bases shadowed each other";
  const auto codes = service.handle_request(R"({"op":"codes"})");
  EXPECT_NE(codes.find(R"("Steane")"), std::string::npos);
  EXPECT_NE(codes.find(R"("Steane/plus")"), std::string::npos);
  const auto info = service.handle_request(
      R"({"op":"info","code":"Steane/plus"})");
  EXPECT_NE(info.find(R"("basis":"plus")"), std::string::npos);
  const auto zero = service.handle_request(R"({"op":"info","code":"Steane"})");
  EXPECT_NE(zero.find(R"("basis":"zero")"), std::string::npos);
}

// ---------------------------------------------------------------------------
// v1 wire compatibility: these responses are FROZEN, byte for byte.
// A failure here means an unversioned client somewhere just broke.
// Never update the expected strings — fix the regression instead.
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, V1GoldenErrorResponses) {
  EXPECT_EQ(service_->handle_request("garbage"),
            R"({"ok":false,"error":"json: expected '{' at offset 0"})");
  // The v1 unknown-op hint must NOT grow as ops are added (health,
  // stats, reload are v2-era; the v1 hint string is frozen).
  EXPECT_EQ(service_->handle_request(R"({"id":7,"op":"nope"})"),
            R"x({"id":7,"ok":false,"error":"unknown op 'nope' (codes|info|sample|rate|circuit)"})x");
  EXPECT_EQ(
      service_->handle_request(R"({"id":"x","op":"info","code":"Nope"})"),
      R"x({"id":"x","ok":false,"error":"unknown code 'Nope' (try {\"op\":\"codes\"})"})x");
  EXPECT_EQ(
      service_->handle_request(R"({"op":"sample","code":"Steane","shots":-1})"),
      R"({"ok":false,)"
      R"("error":"parameter 'shots' must be an integer in [0, 4194304]"})");
}

TEST_F(ServiceTest, V1GoldenCodesResponse) {
  // Shadow-free store: no "shadowed" field, exact historical bytes.
  EXPECT_EQ(service_->handle_request(R"({"op":"codes"})"),
            R"({"ok":true,"codes":["Steane","Surface_3"]})");
}

TEST_F(ServiceTest, V1FieldOrderIsStable) {
  const auto expect_order = [](const std::string& response,
                               const std::vector<std::string>& fields) {
    std::size_t pos = 0;
    for (const auto& field : fields) {
      const auto at = response.find("\"" + field + "\":", pos);
      ASSERT_NE(at, std::string::npos)
          << "missing/misordered '" << field << "' in " << response;
      pos = at;
    }
  };
  expect_order(service_->handle_request(
                   R"({"op":"sample","code":"Steane","p":0.02,"shots":256})"),
               {"ok", "code", "p", "shots", "p_logical", "std_error", "seed",
                "x_fails", "z_fails", "hook_terminated", "total_faults"});
  expect_order(service_->handle_request(
                   R"({"op":"rate","code":"Steane","p":0.01,"shots":1024})"),
               {"ok", "code", "p", "p_logical", "std_error", "ci_low",
                "ci_high", "tail_weight", "mc_shots", "exhaustive_cases",
                "equivalent_naive_shots"});
  expect_order(
      service_->handle_request(R"({"op":"info","code":"Steane"})"),
      {"ok", "code", "basis", "n", "k", "d", "key", "engine", "coupling",
       "prep_fallback", "prep_cnots", "verification_measurements",
       "branches", "solver_invocations", "compile_wall_seconds"});
}

TEST_F(ServiceTest, ExplicitV1MatchesUnversionedByteForByte) {
  for (const auto& [unversioned, versioned] :
       std::vector<std::pair<std::string, std::string>>{
           {R"({"op":"info","code":"Steane"})",
            R"({"v":1,"op":"info","code":"Steane"})"},
           {R"({"op":"codes","id":42})", R"({"v":1,"op":"codes","id":42})"},
           {R"({"op":"nope"})", R"({"v":1,"op":"nope"})"},
       }) {
    EXPECT_EQ(service_->handle_request(unversioned),
              service_->handle_request(versioned));
  }
}

// ---------------------------------------------------------------------------
// v2 envelope
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, V2EnvelopeLeadsWithVersionAndOk) {
  const auto ok = service_->handle_request(R"({"v":2,"op":"codes","id":3})");
  EXPECT_EQ(ok.rfind(R"({"v":2,"ok":true,"id":3,)", 0), 0u) << ok;
  EXPECT_NE(ok.find(R"("codes":["Steane","Surface_3"])"), std::string::npos);
}

TEST_F(ServiceTest, V2ErrorsCarryMachineCodes) {
  const auto cases = std::vector<std::pair<std::string, std::string>>{
      {R"({"v":2,"op":"nope"})", "unknown_op"},
      {R"({"v":2,"op":"info","code":"Nope"})", "unknown_code"},
      {R"({"v":2,"op":"sample","code":"Steane","shots":-1})", "bad_param"},
      {R"({"v":2,"op":"reload"})", "unsupported"},
  };
  for (const auto& [request, code] : cases) {
    const auto response = service_->handle_request(request);
    EXPECT_EQ(response.rfind(R"({"v":2,"ok":false)", 0), 0u) << response;
    EXPECT_NE(response.find("\"error\":{\"code\":\"" + code + "\","),
              std::string::npos)
        << request << " -> " << response;
  }
  // The v2 unknown-op hint lists the full live op table.
  EXPECT_NE(service_->handle_request(R"({"v":2,"op":"nope"})")
                .find("codes|info|sample|rate|circuit|health|stats|reload"),
            std::string::npos);
}

TEST_F(ServiceTest, UnsupportedVersionIsRejectedButEchoesId) {
  EXPECT_EQ(service_->handle_request(R"({"v":3,"op":"codes","id":9})"),
            R"x({"id":9,"ok":false,"error":"unsupported protocol version '3' (1|2)"})x");
}

TEST_F(ServiceTest, V2PayloadMatchesV1Payload) {
  // One payload, two envelopes: the fields after the envelope prefix
  // must be identical so cached payloads serve both dialects.
  const auto v1 = service_->handle_request(
      R"({"op":"sample","code":"Steane","p":0.02,"shots":512,"seed":4})");
  const auto v2 = service_->handle_request(
      R"({"v":2,"op":"sample","code":"Steane","p":0.02,"shots":512,"seed":4})");
  EXPECT_EQ(v1.substr(std::string(R"({"ok":true,)").size()),
            v2.substr(std::string(R"({"v":2,"ok":true,)").size()));
}

// ---------------------------------------------------------------------------
// New ops: health, stats; shadow surfacing; cached serving
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, HealthReportsCountsAndGeneration) {
  const auto health = service_->handle_request(R"({"v":2,"op":"health"})");
  EXPECT_NE(health.find(R"("status":"serving")"), std::string::npos);
  EXPECT_NE(health.find(R"("codes":2)"), std::string::npos);
  EXPECT_NE(health.find(R"("generation":1)"), std::string::npos);
  EXPECT_NE(health.find(R"("reloadable":false)"), std::string::npos);
}

TEST_F(ServiceTest, StatsCountsRequestsPerOp) {
  // Request counts are process-wide registry counters: start from zero.
  obs::Registry::instance().reset_for_tests();
  const ProtocolCompiler compiler;
  ProtocolService service;
  service.add(compiler.compile(qec::steane()));
  service.handle_request(R"({"op":"codes"})");
  service.handle_request(R"({"op":"codes"})");
  service.handle_request(R"({"op":"info","code":"Steane"})");
  service.handle_request(R"({"op":"nope"})");
  const auto stats = service.handle_request(R"({"v":2,"op":"stats"})");
  EXPECT_NE(stats.find(R"("codes":2)"), std::string::npos) << stats;
  EXPECT_NE(stats.find(R"("info":1)"), std::string::npos) << stats;
  EXPECT_NE(stats.find(R"("rejected":1)"), std::string::npos) << stats;
  // No cache attached: explicit null, not absent.
  EXPECT_NE(stats.find(R"("cache":null)"), std::string::npos) << stats;
}

TEST_F(ServiceTest, StatsV1BytesAreFrozen) {
  // The whole v1 `stats` response, byte for byte: every registered op
  // (zeros included) in alphabetical order, the unknown-op count, and
  // the cache block or null. The counts are process-wide, so each run
  // starts from a reset registry, and they record whether or not
  // telemetry is enabled.
  const ProtocolCompiler compiler;
  const ProtocolArtifact steane = compiler.compile(qec::steane());
  const auto run = [&](bool with_cache) {
    obs::Registry::instance().reset_for_tests();
    ProtocolService service;
    service.add(steane);
    if (with_cache) {
      service.set_payload_cache(
          std::make_shared<serve::PayloadCache>(1u << 20));
    }
    service.handle_request(R"({"op":"codes"})");
    service.handle_request(R"({"op":"codes"})");
    service.handle_request(R"({"op":"info","code":"Steane"})");
    service.handle_request(R"({"op":"nope"})");
    return service.handle_request(R"({"op":"stats"})");
  };
  const std::string head =
      R"({"ok":true,"generation":1,"ops":{"circuit":0,"codes":2,)"
      R"("health":0,"info":1,"metrics":0,"rate":0,"reload":0,"sample":0,)"
      R"("stats":1},"rejected":1,)";
  const std::string without_cache = head + R"("cache":null})";
  const std::string with_cache =
      head +
      R"("cache":{"hits":0,"misses":0,"hit_rate":0,"coalesced":0,)"
      R"("evictions":0,"entries":0,"bytes":0,"capacity_bytes":1048576}})";
  for (const bool on : {true, false}) {
    obs::set_enabled(on);
    EXPECT_EQ(run(false), without_cache) << "telemetry on=" << on;
    EXPECT_EQ(run(true), with_cache) << "telemetry on=" << on;
  }
  obs::clear_enabled_override();
}

TEST_F(ServiceTest, ShadowedArtifactsAreSurfacedLoudly) {
  const ProtocolCompiler compiler;
  ProtocolService service;
  auto original = compiler.compile(qec::steane());
  auto replacement = original;
  replacement.key += ":alt";
  const std::string original_key = original.key;
  service.add(std::move(original));
  service.add(std::move(replacement));
  EXPECT_EQ(service.size(), 1u) << "same serving name must shadow";
  ASSERT_EQ(service.shadowed_keys().size(), 1u);
  EXPECT_EQ(service.shadowed_keys()[0], original_key);
  const auto codes = service.handle_request(R"({"op":"codes"})");
  EXPECT_NE(codes.find("\"shadowed\":[\"" + original_key + "\"]"),
            std::string::npos)
      << codes;
  // Health counts them too.
  const auto health = service.handle_request(R"({"v":2,"op":"health"})");
  EXPECT_NE(health.find(R"("shadowed":1)"), std::string::npos);
}

TEST_F(ServiceTest, CachedServingIsByteIdenticalAndCounted) {
  const ProtocolCompiler compiler;
  ProtocolService service;
  service.add(compiler.compile(qec::steane()));
  const std::string request =
      R"({"op":"rate","code":"Steane","p":0.01,"shots":2048,"seed":2})";
  const auto uncached = service.handle_request(request);

  const auto cache = std::make_shared<serve::PayloadCache>(1u << 20);
  service.set_payload_cache(cache);
  const auto first = service.handle_request(request);
  const auto second = service.handle_request(request);
  EXPECT_EQ(first, uncached) << "cache changed served bytes";
  EXPECT_EQ(second, uncached);
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(cache->stats().misses, 1u);

  // Requests differing only in thread count share one cache entry (the
  // determinism contract: thread count never changes result bytes)...
  const auto threaded = service.handle_request(
      R"({"op":"rate","code":"Steane","p":0.01,"shots":2048,"seed":2,)"
      R"("threads":2})");
  EXPECT_EQ(threaded, uncached);
  EXPECT_EQ(cache->stats().hits, 2u);
  // ...but invalid parameters are still rejected, never cache-hit past.
  const auto invalid = service.handle_request(
      R"({"op":"rate","code":"Steane","p":0.01,"shots":2048,"seed":2,)"
      R"("threads":100000})");
  EXPECT_NE(invalid.find(R"("ok":false)"), std::string::npos);

  // sample coalesces but does not memoize: identical repeats recompute
  // (deterministically) instead of occupying cache budget.
  const std::string sample =
      R"({"op":"sample","code":"Steane","p":0.02,"shots":256,"seed":8})";
  const auto sample_a = service.handle_request(sample);
  const auto sample_b = service.handle_request(sample);
  EXPECT_EQ(sample_a, sample_b);
  EXPECT_EQ(cache->stats().hits, 2u) << "sample must not be memoized";
}

/// A `circuit` request line; `head` opens the object ("{" for v1).
std::string circuit_request(const std::string& head, const std::string& code,
                            const std::string& format) {
  return head + R"("op":"circuit","code":")" + code + R"(","format":")" +
         format + R"("})";
}

TEST_F(ServiceTest, CachedCircuitRepliesMatchCacheFreeBytes) {
  // `circuit` payloads are memoized per (artifact key, format). Cold
  // renders and warm hits must answer the cache-free bytes, in both
  // dialects, for a flag-free code and a flagged one.
  const ProtocolCompiler compiler;
  ProtocolService plain;
  ProtocolService cached;
  for (const qec::CssCode& code : {qec::steane(), qec::carbon()}) {
    const ProtocolArtifact artifact = compiler.compile(code);
    plain.add(artifact);
    cached.add(artifact);
  }
  const auto cache = std::make_shared<serve::PayloadCache>(1u << 20);
  cached.set_payload_cache(cache);
  for (const char* code : {"Steane", "Carbon"}) {
    for (const char* format : {"qasm", "text"}) {
      for (const char* head : {"{", R"({"v":2,"id":7,)"}) {
        const std::string request = circuit_request(head, code, format);
        const std::string expected = plain.handle_request(request);
        ASSERT_NE(expected.find(R"("ok":true)"), std::string::npos)
            << expected;
        EXPECT_EQ(cached.handle_request(request), expected) << request;
        EXPECT_EQ(cached.handle_request(request), expected) << request;
      }
    }
  }
  // v1 and v2 share one payload per (code, format): 4 computes, and
  // every other request of the 16 is a hit.
  const auto stats = cache->stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 12u);
}

TEST_F(ServiceTest, RepeatedCircuitRequestIsACacheHit) {
  const ProtocolCompiler compiler;
  ProtocolService service;
  service.add(compiler.compile(qec::steane()));
  const auto cache = std::make_shared<serve::PayloadCache>(1u << 20);
  service.set_payload_cache(cache);
  obs::Counter& op_hits = obs::Registry::instance().counter(
      obs::labeled("serve.cache.hit.count", "op", "circuit"));
  for (const char* format : {"qasm", "text"}) {
    const std::string request = circuit_request("{", "Steane", format);
    const auto before = cache->stats();
    const std::string cold = service.handle_request(request);
    const auto computed = cache->stats();
    EXPECT_EQ(computed.entries, before.entries + 1) << format;
    EXPECT_EQ(computed.hits, before.hits) << format;
    const std::uint64_t op_hits_before = op_hits.value();
    EXPECT_EQ(service.handle_request(request), cold) << format;
    const auto hit = cache->stats();
    EXPECT_EQ(hit.hits, computed.hits + 1) << format;
    EXPECT_EQ(hit.entries, computed.entries) << format;
    EXPECT_EQ(op_hits.value(), op_hits_before + 1) << format;
  }
  // The default format is qasm: it shares the explicit qasm entry.
  service.handle_request(R"({"op":"circuit","code":"Steane"})");
  EXPECT_EQ(cache->stats().entries, 2u);
  EXPECT_EQ(cache->stats().hits, 3u);
}

TEST_F(ServiceTest, CircuitBypassesACacheThatCannotStore) {
  // On a capacity-0 cache (the `ftsp_cli serve` default) nothing is
  // stored, and a render is cheaper than coalescing onto another's, so
  // `circuit` skips the cache; `sample` still coalesces through it.
  const ProtocolCompiler compiler;
  ProtocolService service;
  service.add(compiler.compile(qec::steane()));
  const std::string request = circuit_request("{", "Steane", "qasm");
  const std::string expected = service.handle_request(request);
  const auto cache = std::make_shared<serve::PayloadCache>(0);
  service.set_payload_cache(cache);
  EXPECT_EQ(service.handle_request(request), expected);
  EXPECT_EQ(service.handle_request(request), expected);
  EXPECT_EQ(cache->stats().misses, 0u);
  EXPECT_EQ(cache->stats().entries, 0u);
  service.handle_request(
      R"({"op":"sample","code":"Steane","p":0.02,"shots":256,"seed":8})");
  EXPECT_EQ(cache->stats().misses, 1u);
}

TEST_F(ServiceTest, UnknownCircuitFormatIsRejectedColdAndWarm) {
  const ProtocolCompiler compiler;
  const ProtocolArtifact steane = compiler.compile(qec::steane());
  ProtocolService plain;
  plain.add(steane);
  ProtocolService cached;
  cached.add(steane);
  const auto cache = std::make_shared<serve::PayloadCache>(1u << 20);
  cached.set_payload_cache(cache);
  const std::pair<std::string, const char*> cases[] = {
      {circuit_request("{", "Steane", "bogus"), "unknown format 'bogus'"},
      {circuit_request(R"({"v":2,)", "Steane", "bogus"),
       R"("code":"bad_param")"},
      {R"({"v":2,"op":"circuit","code":"Steane","format":3})",
       R"("code":"bad_param")"}};
  for (const auto& [request, error] : cases) {
    const std::string expected = plain.handle_request(request);
    EXPECT_NE(expected.find(error), std::string::npos) << expected;
    EXPECT_EQ(cached.handle_request(request), expected) << "cold";
    // A valid render in between must not let the bad format hit it.
    cached.handle_request(circuit_request("{", "Steane", "qasm"));
    EXPECT_EQ(cached.handle_request(request), expected) << "warm";
  }
  // Only the valid qasm render was stored.
  EXPECT_EQ(cache->stats().entries, 1u);
}

TEST_F(ServiceTest, GenerationsSharingACacheServeTheirOwnCircuit) {
  // Reload generations share one PayloadCache. Two generations serving
  // "Steane" from different artifacts must each answer their own
  // artifact's bytes. The second artifact takes one heuristic
  // preparation try with another seed: a different circuit under a
  // different key.
  core::SynthesisOptions options;
  options.prep.shuffle_tries = 1;
  options.prep.seed = 1;
  const ProtocolArtifact first = ProtocolCompiler().compile(qec::steane());
  const ProtocolArtifact second =
      ProtocolCompiler(options).compile(qec::steane());
  ASSERT_NE(first.key, second.key);
  const auto cache = std::make_shared<serve::PayloadCache>(1u << 20);
  std::vector<std::string> expected;
  std::vector<std::unique_ptr<ProtocolService>> generations;
  for (const ProtocolArtifact* artifact : {&first, &second}) {
    ProtocolService plain;
    plain.add(*artifact);
    expected.push_back(
        plain.handle_request(circuit_request("{", "Steane", "qasm")));
    generations.push_back(std::make_unique<ProtocolService>());
    generations.back()->add(*artifact);
    generations.back()->set_payload_cache(cache);
  }
  ASSERT_NE(expected[0], expected[1]) << "the two artifacts render alike";
  for (int round = 0; round < 2; ++round) {
    for (std::size_t g = 0; g < generations.size(); ++g) {
      EXPECT_EQ(generations[g]->handle_request(
                    circuit_request("{", "Steane", "qasm")),
                expected[g])
          << "generation " << g << ", round " << round;
    }
  }
  EXPECT_EQ(cache->stats().entries, 2u);
}

TEST_F(ServiceTest, MetricsOpReturnsPrometheusRendering) {
  obs::set_enabled(true);
  // Serve something first so request-count metrics exist in the scrape.
  service_->handle_request(R"({"v":2,"op":"health"})");
  const auto response = service_->handle_request(R"({"v":2,"op":"metrics"})");
  obs::clear_enabled_override();

  EXPECT_EQ(response.rfind(R"({"v":2,"ok":true,)", 0), 0u) << response;
  EXPECT_NE(response.find(R"("format":"prometheus")"), std::string::npos);
  // The body is one JSON string holding the whole exposition (names
  // sanitized to underscores); the scrape counter is bumped before
  // rendering, so it sees itself.
  EXPECT_NE(response.find("# TYPE serve_request_count counter"),
            std::string::npos);
  EXPECT_NE(response.find("serve_metrics_scrape_count"), std::string::npos);
}

TEST_F(ServiceTest, StatsV2CarriesLatencyAndCacheBreakdown) {
  obs::set_enabled(true);
  const ProtocolCompiler compiler;
  ProtocolService service;
  service.add(compiler.compile(qec::steane()));
  service.set_payload_cache(std::make_shared<serve::PayloadCache>(1u << 20));
  const std::string rate_request =
      R"({"op":"rate","code":"Steane","p":0.01,"shots":1024,"seed":1})";
  service.handle_request(rate_request);
  service.handle_request(rate_request);  // second one is a cache hit

  const auto v2 = service.handle_request(R"({"v":2,"op":"stats"})");
  obs::clear_enabled_override();

  EXPECT_NE(v2.find(R"("obs_enabled":true)"), std::string::npos) << v2;
  // Latency percentiles for every registered op, p50 <= p99 within one
  // snapshot by construction.
  for (const char* op : {"codes", "info", "sample", "rate", "circuit",
                         "health", "stats", "reload", "metrics"}) {
    EXPECT_NE(v2.find("\"" + std::string(op) + "\":{\"count\":"),
              std::string::npos)
        << "missing latency block for " << op << " in " << v2;
  }
  EXPECT_NE(v2.find(R"("p50_us":)"), std::string::npos);
  EXPECT_NE(v2.find(R"("p99_us":)"), std::string::npos);
  // Cache breakdown only for the ops with a payload-cache key (sample,
  // rate, circuit). The registry is process-global, so assert presence,
  // not exact counts.
  const auto cache_ops_at = v2.find(R"("cache_ops":{)");
  ASSERT_NE(cache_ops_at, std::string::npos) << v2;
  const std::string cache_ops = v2.substr(cache_ops_at);
  EXPECT_NE(cache_ops.find(R"("rate":{"hit":)"), std::string::npos);
  EXPECT_NE(cache_ops.find(R"("sample":{"hit":)"), std::string::npos);
  EXPECT_NE(cache_ops.find(R"("circuit":{"hit":)"), std::string::npos);
  EXPECT_EQ(cache_ops.find(R"("codes":{"hit":)"), std::string::npos)
      << "codes is never cached; it must not get a cache_ops block";

  // The v1 stats response is frozen: none of the v2 extension fields
  // may appear.
  const auto v1 = service.handle_request(R"({"op":"stats"})");
  EXPECT_EQ(v1.find("obs_enabled"), std::string::npos) << v1;
  EXPECT_EQ(v1.find("latency"), std::string::npos) << v1;
  EXPECT_EQ(v1.find("cache_ops"), std::string::npos) << v1;
}

TEST(ServiceStoreTest, ServingNeverReadsProofSidecars) {
  core::SynthCache::instance().clear();  // Force a proof-capturing solve.
  core::SynthesisOptions options;
  options.capture_proofs = true;
  const ProtocolArtifact artifact =
      ProtocolCompiler(options).compile(qec::steane());
  ASSERT_FALSE(artifact.proofs.empty());

  const auto dir = std::filesystem::temp_directory_path() /
                   ("ftsp-service-proofs-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ArtifactStore store(dir.string());
  store.put(artifact);
  std::uintmax_t sidecar_size = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".proof") {
      sidecar_size = entry.file_size();
    }
  }
  ASSERT_GT(sidecar_size, 0u);

  obs::Counter& read_bytes =
      obs::Registry::instance().counter("store.proof.read.bytes");
  read_bytes.reset();
  {
    ArtifactStore reopened(dir.string());
    ProtocolService service;
    EXPECT_EQ(service.load_store(reopened), 1u);
    for (const char* request :
         {R"({"op":"info","code":"Steane"})",
          R"({"op":"circuit","code":"Steane","format":"qasm"})",
          R"({"op":"sample","code":"Steane","p":0.02,"shots":512,"seed":1})"}) {
      const auto response = service.handle_request(request);
      EXPECT_NE(response.find(R"("ok":true)"), std::string::npos)
          << response;
    }
  }
  EXPECT_EQ(read_bytes.value(), 0u) << "a serving path read a sidecar";

  // Only an explicit load_proofs reads the sidecar, all of it, once.
  auto loaded = store.get(artifact.key);
  ASSERT_TRUE(loaded.has_value());
  store.load_proofs(*loaded);
  EXPECT_EQ(read_bytes.value(), sidecar_size);
  std::filesystem::remove_all(dir);
}

TEST(PayloadCacheTest, EvictsLruAndTracksBytes) {
  serve::PayloadCache cache(64);
  int computes = 0;
  const auto fill = [&](const std::string& key, std::size_t size) {
    return cache.get_or_compute(key, /*store=*/true, [&] {
      ++computes;
      return std::string(size, 'x');
    });
  };
  // Entry cost is key + payload bytes: 1 + 29 = 30 per entry here, so
  // two fit the 64-byte budget and a third forces an eviction.
  fill("a", 29);
  fill("b", 29);
  EXPECT_EQ(cache.stats().entries, 2u);
  fill("a", 29);  // refresh a's recency
  EXPECT_EQ(cache.stats().hits, 1u);
  fill("c", 29);  // over budget: evicts b (least recent), not a
  EXPECT_EQ(cache.stats().evictions, 1u);
  fill("a", 29);
  EXPECT_EQ(cache.stats().hits, 2u);
  fill("b", 29);  // recompute: b was evicted
  EXPECT_EQ(computes, 4);
  // An oversized payload passes through without occupying the cache.
  fill("huge", 4096);
  EXPECT_LE(cache.stats().bytes, 64u);
}

TEST(PayloadCacheTest, CoalescesConcurrentComputes) {
  serve::PayloadCache cache(0);  // capacity 0: coalescing only
  std::atomic<int> computes{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] = cache
                       .get_or_compute("key", /*store=*/false,
                                       [&] {
                                         ++computes;
                                         std::this_thread::sleep_for(
                                             std::chrono::milliseconds(50));
                                         return std::string("payload");
                                       })
                       .payload;
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (const auto& result : results) {
    EXPECT_EQ(result, "payload");
  }
  // At least SOME of the 8 concurrent identical requests must have
  // shared a compute (scheduling may let a late thread miss the
  // window, so exact counts are not asserted).
  EXPECT_LT(computes.load(), kThreads);
  EXPECT_GT(cache.stats().coalesced, 0u);
  // Capacity 0 never stores.
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(PayloadCacheTest, ComputeExceptionsPropagateAndAreNotCached) {
  serve::PayloadCache cache(1024);
  int calls = 0;
  const auto boom = [&]() -> std::string {
    ++calls;
    throw std::runtime_error("boom");
  };
  EXPECT_THROW(cache.get_or_compute("k", true, boom), std::runtime_error);
  EXPECT_THROW(cache.get_or_compute("k", true, boom), std::runtime_error);
  EXPECT_EQ(calls, 2) << "failed compute must not be cached";
  const auto ok =
      cache.get_or_compute("k", true, [] { return std::string("fine"); });
  EXPECT_EQ(ok.payload, "fine");
}

}  // namespace
}  // namespace ftsp::compile
