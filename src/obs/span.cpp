#include "accountnet/obs/span.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "accountnet/obs/sink.hpp"  // json_escape
#include "accountnet/util/ensure.hpp"

namespace accountnet::obs {

namespace {

/// Stateless mix (splitmix64): a bijection, so distinct counter values give
/// distinct ids for a fixed seed — no entropy, no protocol Rng stream.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Opens a dump file for writing, creating a missing parent directory first,
/// so a run whose output directory does not exist yet still keeps its trace.
std::FILE* open_dump(const std::string& path, const char* what) {
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  std::error_code ec;  // a failure surfaces as the fopen error below
  if (!dir.empty()) std::filesystem::create_directories(dir, ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  AN_ENSURE_MSG(f != nullptr, std::string("cannot open ") + what + ": " + path);
  return f;
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

const std::string* Span::find_attr(std::string_view key) const {
  for (const SpanAttr& a : attrs) {
    if (a.key == key) return &a.value;
  }
  return nullptr;
}

std::uint64_t Tracer::next_id() {
  std::uint64_t id = 0;
  while (id == 0) id = mix64(seed_ + ++counter_);
  return id;
}

std::uint64_t Tracer::begin_span(std::string name, std::string node,
                                 std::int64_t t_us, TraceContext parent) {
  Span s;
  s.span_id = next_id();
  s.trace_id = parent.valid() ? parent.trace_id : s.span_id;
  s.parent_span = parent.valid() ? parent.parent_span : 0;
  s.name = std::move(name);
  s.node = std::move(node);
  s.start_us = t_us;
  s.end_us = t_us - 1;  // open
  index_[s.span_id] = spans_.size();
  spans_.push_back(std::move(s));
  return spans_.back().span_id;
}

void Tracer::end_span(std::uint64_t span_id, std::int64_t t_us) {
  const auto it = index_.find(span_id);
  if (it == index_.end()) return;
  Span& s = spans_[it->second];
  s.end_us = std::max(t_us, s.start_us);
}

void Tracer::attr(std::uint64_t span_id, std::string key, std::string value) {
  const auto it = index_.find(span_id);
  if (it == index_.end()) return;
  spans_[it->second].attrs.push_back({std::move(key), std::move(value)});
}

void Tracer::attr_u64(std::uint64_t span_id, std::string key, std::uint64_t value) {
  attr(span_id, std::move(key), std::to_string(value));
}

TraceContext Tracer::context(std::uint64_t span_id) const {
  const auto it = index_.find(span_id);
  if (it == index_.end()) return {};
  const Span& s = spans_[it->second];
  return {s.trace_id, s.span_id};
}

void Tracer::clear() {
  spans_.clear();
  index_.clear();
}

// ---------------------------------------------------------------------------
// JSONL dump.

std::string span_to_json_line(const Span& s) {
  std::string out = "{\"trace\":\"" + hex16(s.trace_id) + "\",\"span\":\"" +
                    hex16(s.span_id) + "\",\"parent\":\"" + hex16(s.parent_span) +
                    "\",\"name\":\"" + json_escape(s.name) + "\",\"node\":\"" +
                    json_escape(s.node) +
                    "\",\"start_us\":" + std::to_string(s.start_us) +
                    ",\"end_us\":" + std::to_string(s.end_us) + ",\"attrs\":{";
  bool first = true;
  for (const SpanAttr& a : s.attrs) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(a.key) + "\":\"" + json_escape(a.value) + "\"";
  }
  out += "}}";
  return out;
}

void write_spans_jsonl(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = open_dump(path, "span dump file");
  for (const Span& s : spans) {
    const std::string line = span_to_json_line(s);
    std::fwrite(line.data(), 1, line.size(), f);
    std::fputc('\n', f);
  }
  std::fclose(f);
}

namespace {

/// Minimal cursor parser for the exact object shape span_to_json_line
/// produces (plus unknown scalar fields, skipped for forward compatibility).
struct Cursor {
  const char* p;
  const char* end;

  void ws() {
    while (p < end && (*p == ' ' || *p == '\t')) ++p;
  }
  bool expect(char c) {
    ws();
    if (p >= end || *p != c) return false;
    ++p;
    return true;
  }
  bool peek(char c) {
    ws();
    return p < end && *p == c;
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (p < end && *p != '"') {
      char c = *p++;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p >= end) return false;
      const char esc = *p++;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (end - p < 4) return false;
          char hex[5] = {p[0], p[1], p[2], p[3], 0};
          p += 4;
          const unsigned long cp = std::strtoul(hex, nullptr, 16);
          // The writer only emits \u for control bytes; anything wider is
          // replaced rather than decoded into UTF-8.
          out += cp < 0x100 ? static_cast<char>(cp) : '?';
          break;
        }
        default: return false;
      }
    }
    return expect('"');
  }

  bool parse_int(std::int64_t& out) {
    ws();
    char* after = nullptr;
    out = std::strtoll(p, &after, 10);
    if (after == p) return false;
    p = after;
    return true;
  }

  bool skip_value() {
    ws();
    if (peek('"')) {
      std::string ignored;
      return parse_string(ignored);
    }
    if (peek('{')) {  // flat object of string values only
      if (!expect('{')) return false;
      if (expect('}')) return true;
      do {
        std::string k;
        if (!parse_string(k) || !expect(':') || !skip_value()) return false;
      } while (expect(','));
      return expect('}');
    }
    std::int64_t ignored = 0;
    return parse_int(ignored);
  }
};

bool parse_hex_id(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* after = nullptr;
  out = std::strtoull(s.c_str(), &after, 16);
  return after == s.c_str() + s.size();
}

}  // namespace

bool parse_span_json_line(const std::string& line, Span& out) {
  out = Span{};
  Cursor c{line.data(), line.data() + line.size()};
  if (!c.expect('{')) return false;
  if (c.expect('}')) return true;
  do {
    std::string key;
    if (!c.parse_string(key) || !c.expect(':')) return false;
    if (key == "trace" || key == "span" || key == "parent") {
      std::string hex;
      std::uint64_t id = 0;
      if (!c.parse_string(hex) || !parse_hex_id(hex, id)) return false;
      (key == "trace" ? out.trace_id : key == "span" ? out.span_id
                                                     : out.parent_span) = id;
    } else if (key == "name") {
      if (!c.parse_string(out.name)) return false;
    } else if (key == "node") {
      if (!c.parse_string(out.node)) return false;
    } else if (key == "start_us") {
      if (!c.parse_int(out.start_us)) return false;
    } else if (key == "end_us") {
      if (!c.parse_int(out.end_us)) return false;
    } else if (key == "attrs") {
      if (!c.expect('{')) return false;
      if (!c.expect('}')) {
        do {
          SpanAttr a;
          if (!c.parse_string(a.key) || !c.expect(':') || !c.parse_string(a.value))
            return false;
          out.attrs.push_back(std::move(a));
        } while (c.expect(','));
        if (!c.expect('}')) return false;
      }
    } else {
      if (!c.skip_value()) return false;  // unknown field: tolerate scalars
    }
  } while (c.expect(','));
  return c.expect('}') && out.span_id != 0;
}

std::vector<Span> load_spans_jsonl(const std::string& path) {
  std::vector<Span> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Span s;
    if (parse_span_json_line(line, s)) out.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Perfetto export.

std::string perfetto_json(const std::vector<Span>& spans) {
  // Stable pid per participant, in first-seen order.
  std::unordered_map<std::string, int> pids;
  std::vector<const std::string*> names;
  for (const Span& s : spans) {
    if (pids.emplace(s.node, static_cast<int>(pids.size()) + 1).second) {
      names.push_back(&s.node);
    }
  }

  std::vector<const Span*> ordered;
  ordered.reserve(spans.size());
  for (const Span& s : spans) ordered.push_back(&s);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Span* a, const Span* b) {
                     if (a->start_us != b->start_us) return a->start_us < b->start_us;
                     return a->span_id < b->span_id;
                   });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
           std::to_string(i + 1) + ",\"tid\":0,\"args\":{\"name\":\"" +
           json_escape(*names[i]) + "\"}}";
  }
  for (const Span* s : ordered) {
    const int pid = pids[s->node];
    const std::int64_t dur = s->open() ? 0 : s->end_us - s->start_us;
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + json_escape(s->name) +
           "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":" + std::to_string(s->start_us) +
           ",\"dur\":" + std::to_string(dur) + ",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(pid) + ",\"args\":{\"trace\":\"" +
           hex16(s->trace_id) + "\",\"span\":\"" + hex16(s->span_id) +
           "\",\"parent\":\"" + hex16(s->parent_span) + "\"";
    for (const SpanAttr& a : s->attrs) {
      out += ",\"" + json_escape(a.key) + "\":\"" + json_escape(a.value) + "\"";
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

void PerfettoSink::add_all(const std::vector<Span>& spans) {
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

void PerfettoSink::flush() {
  std::FILE* f = open_dump(path_, "perfetto trace file");
  const std::string doc = perfetto_json(spans_);
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Trace forests + critical paths.

std::int64_t TraceTree::duration_us() const {
  if (root == nullptr) return 0;
  std::int64_t latest = root->start_us;
  for (const Span* s : spans) {
    latest = std::max(latest, s->open() ? s->start_us : s->end_us);
  }
  return latest - root->start_us;
}

std::vector<TraceTree> build_traces(const std::vector<Span>& spans) {
  std::vector<TraceTree> out;
  std::unordered_map<std::uint64_t, std::size_t> slot;
  for (const Span& s : spans) {
    const auto [it, inserted] = slot.emplace(s.trace_id, out.size());
    if (inserted) {
      out.push_back(TraceTree{s.trace_id, nullptr, {}});
    }
    out[it->second].spans.push_back(&s);
  }
  for (TraceTree& tree : out) {
    std::unordered_set<std::uint64_t> present;
    for (const Span* s : tree.spans) present.insert(s->span_id);
    // Prefer a true root (parent == 0); otherwise the earliest orphan — a
    // trimmed dump can lose the root but the tree should still analyse.
    for (const Span* s : tree.spans) {
      const bool rootish = s->parent_span == 0 || !present.contains(s->parent_span);
      if (!rootish) continue;
      if (tree.root == nullptr || s->start_us < tree.root->start_us ||
          (s->start_us == tree.root->start_us && s->parent_span == 0 &&
           tree.root->parent_span != 0)) {
        tree.root = s;
      }
    }
  }
  return out;
}

std::vector<const Span*> critical_path(const TraceTree& tree) {
  std::vector<const Span*> path;
  if (tree.spans.empty()) return path;
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span* s : tree.spans) by_id.emplace(s->span_id, s);

  const Span* last = tree.spans.front();
  auto finish = [](const Span* s) { return s->open() ? s->start_us : s->end_us; };
  for (const Span* s : tree.spans) {
    if (finish(s) > finish(last)) last = s;
  }
  // Walk parent links back to the root; cycle-guarded for hostile dumps.
  std::unordered_set<std::uint64_t> visited;
  for (const Span* s = last; s != nullptr && visited.insert(s->span_id).second;) {
    path.push_back(s);
    const auto it = by_id.find(s->parent_span);
    s = it == by_id.end() ? nullptr : it->second;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace accountnet::obs
