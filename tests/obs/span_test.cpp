// Tracer: deterministic ids, parent/trace links, JSONL round-trips (with
// hostile strings), Perfetto export shape, and trace-forest analysis.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "accountnet/obs/span.hpp"

namespace accountnet::obs {
namespace {

TEST(Tracer, SameSeedSameIdStream) {
  Tracer a(42);
  Tracer b(42);
  const std::uint64_t ra = a.begin_span("op", "n0", 10);
  const std::uint64_t rb = b.begin_span("op", "n0", 10);
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(a.begin_span("child", "n1", 20, a.context(ra)),
            b.begin_span("child", "n1", 20, b.context(rb)));
  a.end_span(ra, 30);
  b.end_span(rb, 30);
  EXPECT_EQ(a.spans(), b.spans());

  Tracer c(43);
  EXPECT_NE(c.begin_span("op", "n0", 10), ra);
}

TEST(Tracer, RootSpanRootsItsOwnTrace) {
  Tracer t(1);
  const std::uint64_t root = t.begin_span("shuffle", "n0", 5);
  ASSERT_NE(root, 0u);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.spans()[0].trace_id, root);
  EXPECT_EQ(t.spans()[0].span_id, root);
  EXPECT_EQ(t.spans()[0].parent_span, 0u);

  const TraceContext ctx = t.context(root);
  EXPECT_TRUE(ctx.valid());
  EXPECT_EQ(ctx.trace_id, root);
  EXPECT_EQ(ctx.parent_span, root);
  // Unknown ids produce the zero context, so children of a dropped handle
  // root fresh traces instead of mis-linking.
  EXPECT_FALSE(t.context(0xdeadbeef).valid());
}

TEST(Tracer, ChildInheritsTraceAndParent) {
  Tracer t(1);
  const std::uint64_t root = t.begin_span("shuffle", "n0", 5);
  const std::uint64_t child = t.begin_span("shuffle.respond", "n1", 9, t.context(root));
  ASSERT_NE(child, root);
  const Span& s = t.spans()[1];
  EXPECT_EQ(s.trace_id, root);
  EXPECT_EQ(s.parent_span, root);
  EXPECT_EQ(s.span_id, child);
  EXPECT_EQ(s.node, "n1");
}

TEST(Tracer, OpenCloseAndAttrs) {
  Tracer t(1);
  const std::uint64_t id = t.begin_span("relay", "n0", 100);
  EXPECT_TRUE(t.spans()[0].open());
  t.attr(id, "channel", "ch1");
  t.attr_u64(id, "seq", 7);
  t.end_span(id, 250);
  const Span& s = t.spans()[0];
  EXPECT_FALSE(s.open());
  EXPECT_EQ(s.start_us, 100);
  EXPECT_EQ(s.end_us, 250);
  ASSERT_NE(s.find_attr("channel"), nullptr);
  EXPECT_EQ(*s.find_attr("channel"), "ch1");
  ASSERT_NE(s.find_attr("seq"), nullptr);
  EXPECT_EQ(*s.find_attr("seq"), "7");
  EXPECT_EQ(s.find_attr("missing"), nullptr);
  // Ending / annotating unknown ids is ignored, not fatal — aborted paths
  // drop handles routinely.
  t.end_span(12345, 300);
  t.attr(12345, "k", "v");
  EXPECT_EQ(t.size(), 1u);
}

TEST(SpanJsonl, RoundTripsPlainSpan) {
  Tracer t(9);
  const std::uint64_t root = t.begin_span("channel", "n3", 42);
  t.attr_u64(root, "witnesses", 4);
  t.end_span(root, 90);

  Span parsed;
  ASSERT_TRUE(parse_span_json_line(span_to_json_line(t.spans()[0]), parsed));
  EXPECT_EQ(parsed, t.spans()[0]);
}

TEST(SpanJsonl, RoundTripsHostileStrings) {
  // Names, nodes, and attrs may carry peer-controlled bytes (addresses,
  // error tags); quotes, backslashes, and control characters must survive
  // a dump/load cycle without corrupting the line structure.
  Span s;
  s.trace_id = 1;
  s.span_id = 2;
  s.parent_span = 0;
  s.name = "op\"quote\\back\nline";
  s.node = "n\t0\x01";
  s.start_us = 1;
  s.end_us = 2;
  s.attrs.push_back({"k\"ey", "v\\al\nue"});

  const std::string line = span_to_json_line(s);
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;
  Span parsed;
  ASSERT_TRUE(parse_span_json_line(line, parsed)) << line;
  EXPECT_EQ(parsed, s);
}

TEST(SpanJsonl, RejectsMalformedLines) {
  Span out;
  EXPECT_FALSE(parse_span_json_line("", out));
  EXPECT_FALSE(parse_span_json_line("not json", out));
  EXPECT_FALSE(parse_span_json_line("{\"trace\":\"xyz\"}", out));
}

TEST(SpanJsonl, FileRoundTrip) {
  Tracer t(5);
  const std::uint64_t root = t.begin_span("audit", "n0", 10);
  const std::uint64_t child = t.begin_span("testimony.serve", "n1", 12, t.context(root));
  t.end_span(child, 14);
  t.end_span(root, 20);

  const std::string path = ::testing::TempDir() + "/span_roundtrip.jsonl";
  std::remove(path.c_str());
  write_spans_jsonl(t.spans(), path);
  // Malformed trailing line must be skipped, not fatal.
  {
    std::ofstream app(path, std::ios::app);
    app << "garbage line\n";
  }
  const auto loaded = load_spans_jsonl(path);
  EXPECT_EQ(loaded, t.spans());
  std::remove(path.c_str());
}

// A dump aimed at a directory that does not exist yet (a fresh --out DIR)
// creates it instead of aborting after the run.
TEST(SpanJsonl, WritesIntoMissingNestedDirectory) {
  Tracer t(3);
  t.end_span(t.begin_span("shuffle", "n0", 1), 2);
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "span_missing_dir";
  std::filesystem::remove_all(root);
  const std::string base = (root / "a" / "b" / "run").string();
  write_spans_jsonl(t.spans(), base + ".spans.jsonl");
  EXPECT_EQ(load_spans_jsonl(base + ".spans.jsonl"), t.spans());

  std::filesystem::remove_all(root);
  {
    PerfettoSink perfetto(base + ".perfetto.json");
    perfetto.add_all(t.spans());
  }
  EXPECT_TRUE(std::filesystem::exists(base + ".perfetto.json"));
  std::filesystem::remove_all(root);
}

TEST(Perfetto, ExportsProcessMetadataAndCompleteEvents) {
  Tracer t(7);
  const std::uint64_t root = t.begin_span("shuffle", "n0", 100);
  const std::uint64_t child = t.begin_span("shuffle.respond", "n1", 150, t.context(root));
  t.end_span(child, 180);
  t.end_span(root, 200);

  const std::string json = perfetto_json(t.spans());
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // One process_name metadata record per participant...
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"n0\""), std::string::npos);
  EXPECT_NE(json.find("\"n1\""), std::string::npos);
  // ...and complete events carrying the span ids as 16-hex strings.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(root));
  EXPECT_NE(json.find(hex), std::string::npos);
}

TEST(Perfetto, SinkWritesLoadableDocument) {
  const std::string path = ::testing::TempDir() + "/perfetto_test.json";
  std::remove(path.c_str());
  Tracer t(3);
  t.end_span(t.begin_span("join", "n0", 0), 10);
  {
    PerfettoSink sink(path);
    sink.add_all(t.spans());
    sink.flush();
  }
  std::ifstream in(path);
  std::string doc((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"join\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceForest, GroupsByTraceAndResolvesRoots) {
  Tracer t(11);
  const std::uint64_t r1 = t.begin_span("shuffle", "n0", 0);
  const std::uint64_t c1 = t.begin_span("shuffle.respond", "n1", 5, t.context(r1));
  const std::uint64_t r2 = t.begin_span("relay", "n2", 3);
  t.end_span(c1, 9);
  t.end_span(r1, 12);
  t.end_span(r2, 30);

  const auto traces = build_traces(t.spans());
  ASSERT_EQ(traces.size(), 2u);
  const TraceTree* shuffle = nullptr;
  const TraceTree* relay = nullptr;
  for (const auto& tr : traces) {
    if (tr.trace_id == r1) shuffle = &tr;
    if (tr.trace_id == r2) relay = &tr;
  }
  ASSERT_NE(shuffle, nullptr);
  ASSERT_NE(relay, nullptr);
  ASSERT_NE(shuffle->root, nullptr);
  EXPECT_EQ(shuffle->root->span_id, r1);
  EXPECT_EQ(shuffle->spans.size(), 2u);
  EXPECT_EQ(shuffle->duration_us(), 12);
  EXPECT_EQ(relay->spans.size(), 1u);
  EXPECT_EQ(relay->duration_us(), 27);  // 30 − root start 3
}

TEST(TraceForest, CriticalPathFollowsLatestFinisher) {
  Tracer t(13);
  const std::uint64_t root = t.begin_span("channel", "n0", 0);
  const std::uint64_t fast = t.begin_span("channel.accept", "n1", 2, t.context(root));
  const std::uint64_t slow = t.begin_span("channel.finalize", "n0", 4, t.context(root));
  const std::uint64_t leaf = t.begin_span("channel.apply", "n2", 6, t.context(slow));
  t.end_span(fast, 3);
  t.end_span(slow, 21);
  t.end_span(root, 25);
  t.end_span(leaf, 30);  // latest finisher: the path must run root → slow → leaf

  const auto traces = build_traces(t.spans());
  ASSERT_EQ(traces.size(), 1u);
  const auto path = critical_path(traces[0]);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0]->span_id, root);
  EXPECT_EQ(path[1]->span_id, slow);
  EXPECT_EQ(path[2]->span_id, leaf);
}

TEST(Tracer, ClearDropsSpansAndIndex) {
  Tracer t(2);
  const std::uint64_t id = t.begin_span("op", "n0", 1);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.context(id).valid());
}

}  // namespace
}  // namespace accountnet::obs
