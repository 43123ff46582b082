// accountnet-top — cluster roll-up over accountnetd telemetry endpoints.
//
//   accountnet-top --node H:P [--node H:P ...] [--once] [--interval-s N]
//   accountnet-top --validate H:P       # GET /metrics, strict-validate it
//   accountnet-top --validate-stream    # validate exposition text on stdin
//   accountnet-top --health H:P         # exit 0 iff /healthz answers 200
//
// Each poll hits every daemon's /status and /timeseries (the HTTP plane
// enabled by accountnetd --http-port) and renders one row per node:
// standing, peers, round, windowed shuffle/reconnect rates, how many peers
// the node has quarantined, and how many OTHER nodes have evicted it (the
// cluster's verdict on an adversary).
//
// The /status "seq" field orders polls: a seq that goes backwards means the
// daemon restarted; one that stands still means the poll is stale (a wedged
// or freshly killed daemon whose socket still answered). Unreachable nodes
// render as DOWN rather than vanishing.
//
// Exit codes: 0 ok; 1 validation/health failure or every node down; 2 usage.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "accountnet/net/http.hpp"
#include "accountnet/obs/exposition.hpp"
#include "accountnet/util/json.hpp"

namespace {

using accountnet::net::http_get;
using accountnet::net::HttpGetResult;
using accountnet::util::json_parse;
using accountnet::util::JsonValue;

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

bool parse_endpoint(const std::string& s, Endpoint& out) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  out.host = s.substr(0, colon);
  const long p = std::strtol(s.c_str() + colon + 1, nullptr, 10);
  if (p <= 0 || p > 65535) return false;
  out.port = static_cast<std::uint16_t>(p);
  return true;
}

struct NodeView {
  std::string endpoint;
  bool reachable = false;
  std::string addr;      // protocol address from /status
  bool joined = false;
  double round = 0;
  double peers = 0;
  double seq = 0;
  double uptime_us = 0;
  std::vector<std::string> quarantined;
  std::vector<std::string> evicted;
  // Windowed rates from the last /timeseries point.
  double shuffle_rate = 0;
  double reconnect_rate = 0;
};

std::vector<std::string> string_list(const JsonValue* v) {
  std::vector<std::string> out;
  if (v == nullptr || !v->is_array()) return out;
  for (const JsonValue& e : v->as_array()) {
    if (e.is_string()) out.push_back(e.as_string());
  }
  return out;
}

NodeView poll_node(const Endpoint& ep) {
  NodeView view;
  view.endpoint = ep.host + ":" + std::to_string(ep.port);
  const HttpGetResult status = http_get(ep.host, ep.port, "/status");
  if (!status.ok || status.status != 200) return view;
  const auto doc = json_parse(status.body);
  if (!doc || !doc->is_object()) return view;
  view.reachable = true;
  view.addr = doc->get_string("addr");
  const JsonValue* joined = doc->get("joined");
  view.joined = joined != nullptr && joined->is_bool() && joined->as_bool();
  view.round = doc->get_number("round");
  view.peers = doc->get_number("peers");
  view.seq = doc->get_number("seq");
  view.uptime_us = doc->get_number("uptime_us");
  view.quarantined = string_list(doc->get("quarantined"));
  view.evicted = string_list(doc->get("evicted"));

  const HttpGetResult series = http_get(ep.host, ep.port, "/timeseries");
  if (!series.ok || series.status != 200) return view;
  const auto ts = json_parse(series.body);
  if (!ts || !ts->is_array() || ts->as_array().empty()) return view;
  const JsonValue& last = ts->as_array().back();
  const JsonValue* cells = last.get("series");
  if (cells == nullptr || !cells->is_object()) return view;
  const auto rate = [&](const char* name) {
    const JsonValue* c = cells->get(name);
    return c != nullptr ? c->get_number("rate") : 0.0;
  };
  view.shuffle_rate = rate("node.shuffles_completed");
  view.reconnect_rate = rate("net.conn.reconnects");
  return view;
}

/// One rendered table; returns the number of reachable nodes.
std::size_t render(const std::vector<NodeView>& views,
                   std::map<std::string, double>& last_seq) {
  std::size_t reachable = 0;
  std::printf("%-22s %-12s %5s %7s %8s %8s %5s %6s\n", "NODE", "STATE", "PEERS",
              "ROUND", "SHUF/S", "RECON/S", "QUAR", "EVBY");
  for (const NodeView& v : views) {
    if (!v.reachable) {
      std::printf("%-22s %-12s %5s %7s %8s %8s %5s %6s\n", v.endpoint.c_str(),
                  "DOWN", "-", "-", "-", "-", "-", "-");
      continue;
    }
    ++reachable;
    // Standing: restarted/stale trump joined/joining (seq is the witness).
    std::string state = v.joined ? "joined" : "joining";
    const auto it = last_seq.find(v.endpoint);
    if (it != last_seq.end()) {
      if (v.seq < it->second) state = "restarted";
      else if (v.seq == it->second) state = "stale";
    }
    last_seq[v.endpoint] = v.seq;
    // The cluster's verdict on this node: how many peers evicted its addr.
    std::size_t evicted_by = 0;
    for (const NodeView& other : views) {
      if (&other == &v || !other.reachable) continue;
      for (const std::string& addr : other.evicted) {
        if (addr == v.addr) {
          ++evicted_by;
          break;
        }
      }
    }
    if (evicted_by > 0) state += "*";  // flagged by the rest of the cluster
    std::printf("%-22s %-12s %5.0f %7.0f %8.2f %8.2f %5zu %6zu\n", v.endpoint.c_str(),
                state.c_str(), v.peers, v.round, v.shuffle_rate, v.reconnect_rate,
                v.quarantined.size(), evicted_by);
  }
  return reachable;
}

int validate_body(const std::string& body, const char* origin) {
  const auto v = accountnet::obs::validate_prometheus_text(body);
  if (!v.ok) {
    std::fprintf(stderr, "accountnet-top: INVALID exposition from %s: %s\n",
                 origin, v.error.c_str());
    return 1;
  }
  std::printf("accountnet-top: valid exposition from %s (%zu families, %zu samples)\n",
              origin, v.families, v.samples);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: accountnet-top --node H:P [--node H:P ...] [--once]"
               " [--interval-s N]\n"
               "       accountnet-top --validate H:P | --validate-stream |"
               " --health H:P\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<Endpoint> nodes;
  bool once = false;
  long interval_s = 2;
  std::string validate_target, health_target;
  bool validate_stream = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--once") {
      once = true;
    } else if (a == "--validate-stream") {
      validate_stream = true;
    } else if (a == "--node") {
      const char* v = value();
      Endpoint ep;
      if (v == nullptr || !parse_endpoint(v, ep)) return usage();
      nodes.push_back(ep);
    } else if (a == "--interval-s") {
      const char* v = value();
      if (v == nullptr) return usage();
      interval_s = std::strtol(v, nullptr, 10);
      if (interval_s <= 0) interval_s = 1;
    } else if (a == "--validate") {
      const char* v = value();
      if (v == nullptr) return usage();
      validate_target = v;
    } else if (a == "--health") {
      const char* v = value();
      if (v == nullptr) return usage();
      health_target = v;
    } else {
      return usage();
    }
  }

  if (validate_stream) {
    std::string body;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), stdin)) > 0) body.append(buf, n);
    return validate_body(body, "stdin");
  }
  if (!validate_target.empty()) {
    Endpoint ep;
    if (!parse_endpoint(validate_target, ep)) return usage();
    const HttpGetResult r = http_get(ep.host, ep.port, "/metrics");
    if (!r.ok || r.status != 200) {
      std::fprintf(stderr, "accountnet-top: cannot fetch /metrics from %s: %s\n",
                   validate_target.c_str(),
                   r.ok ? ("status " + std::to_string(r.status)).c_str()
                        : r.error.c_str());
      return 1;
    }
    return validate_body(r.body, validate_target.c_str());
  }
  if (!health_target.empty()) {
    Endpoint ep;
    if (!parse_endpoint(health_target, ep)) return usage();
    const HttpGetResult r = http_get(ep.host, ep.port, "/healthz");
    if (!r.ok) {
      std::printf("%s unreachable (%s)\n", health_target.c_str(), r.error.c_str());
      return 1;
    }
    std::printf("%s %s\n", health_target.c_str(),
                r.status == 200 ? "healthy" : "unhealthy");
    return r.status == 200 ? 0 : 1;
  }

  if (nodes.empty()) return usage();
  std::map<std::string, double> last_seq;
  for (;;) {
    std::vector<NodeView> views;
    views.reserve(nodes.size());
    for (const Endpoint& ep : nodes) views.push_back(poll_node(ep));
    const std::size_t reachable = render(views, last_seq);
    if (once) return reachable > 0 ? 0 : 1;
    std::fflush(stdout);
    ::sleep(static_cast<unsigned>(interval_s));
    std::printf("\n");
  }
}
