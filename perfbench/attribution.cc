#include "perfbench/attribution.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

bool LoadChromeTrace(const std::string& path, std::vector<Event>* events) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    char name[128];
    char cat[64];
    int tid = 0;
    double ts_us = 0;
    double dur_us = 0;
    // One event per line, as obs::WriteChromeTrace prints it.
    if (std::sscanf(line.c_str(),
                    " {\"name\": \"%127[^\"]\", \"cat\": \"%63[^\"]\", "
                    "\"ph\": \"X\", \"pid\": %*d, \"tid\": %d, \"ts\": %lf, "
                    "\"dur\": %lf",
                    name, cat, &tid, &ts_us, &dur_us) != 5) {
      return false;
    }
    Event e;
    e.name = name;
    e.tid = tid;
    e.start_ns = std::llround(ts_us * 1e3);
    e.end_ns = e.start_ns + std::llround(dur_us * 1e3);
    events->push_back(std::move(e));
  }
  return true;
}

void Attribute(const std::vector<Request>& requests,
               std::vector<Event>* events) {
  std::vector<Event>& ev = *events;
  std::sort(ev.begin(), ev.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;  // parents before their children
  });
  std::vector<bool> top_level(ev.size(), false);
  std::vector<size_t> stack;
  for (size_t i = 0; i < ev.size(); ++i) {
    if (i > 0 && ev[i].tid != ev[i - 1].tid) stack.clear();
    while (!stack.empty() && ev[stack.back()].end_ns <= ev[i].start_ns) {
      stack.pop_back();
    }
    int64_t dur = ev[i].end_ns - ev[i].start_ns;
    ev[i].self_ns += dur;
    top_level[i] = stack.empty();
    if (!stack.empty()) {
      ev[stack.back()].self_ns -= dur;
      ev[i].shadow = ev[stack.back()].shadow;
    }
    if (ev[i].shadow.empty() && ev[i].name.rfind("shadow.", 0) == 0) {
      ev[i].shadow = ev[i].name;
    }
    stack.push_back(i);

    auto it = std::upper_bound(
        requests.begin(), requests.end(), ev[i].start_ns,
        [](int64_t t, const Request& r) { return t < r.start_ns; });
    if (it != requests.begin() && ev[i].start_ns < std::prev(it)->end_ns) {
      ev[i].request = static_cast<int>(std::prev(it) - requests.begin());
    }
  }
  // A client span waits for the request's work on other threads: that
  // work is its child, though no thread nests it.
  std::vector<size_t> client(requests.size(), ev.size());
  for (size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].request >= 0 && ev[i].name == requests[ev[i].request].kind) {
      client[static_cast<size_t>(ev[i].request)] = i;
    }
  }
  for (size_t i = 0; i < ev.size(); ++i) {
    if (!top_level[i] || ev[i].request < 0) continue;
    size_t c = client[static_cast<size_t>(ev[i].request)];
    if (c == ev.size() || ev[c].tid == ev[i].tid) continue;
    int64_t overlap = std::min(ev[i].end_ns, ev[c].end_ns) -
                      std::max(ev[i].start_ns, ev[c].start_ns);
    if (overlap > 0) ev[c].self_ns -= overlap;
  }
  // Trace timestamps are rounded to 1 ns per end; never report a
  // negative remainder.
  for (Event& e : ev) e.self_ns = std::max<int64_t>(e.self_ns, 0);
}

void SelfTimeTable::Add(const std::vector<Request>& requests,
                        const std::vector<Event>& events) {
  ++passes_;
  for (const Event& e : events) {
    // Unattributed events are the benchmark's own checks (ToXml).
    if (e.request < 0) continue;
    std::string span = e.shadow.empty() || e.shadow == e.name
                           ? e.name
                           : e.shadow + "/" + e.name;
    Cell& c = cells_[{requests[e.request].kind, span}];
    ++c.calls;
    c.self_ns += e.self_ns;
  }
}

std::string SelfTimeTable::Format() const {
  std::map<std::string, int64_t> base;  // non-shadow self time per kind
  for (const auto& [key, cell] : cells_) {
    if (key.second.rfind("shadow.", 0) != 0) base[key.first] += cell.self_ns;
  }
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-16s %-40s %10s %12s %7s\n", "request",
                "span", "calls/pass", "self_ms/pass", "share");
  out += buf;
  double n = std::max(passes_, 1);
  for (const auto& [key, cell] : cells_) {
    bool shadow = key.second.rfind("shadow.", 0) == 0;
    int64_t b = base[key.first];
    std::string share =
        shadow || b == 0
            ? "-"
            : std::to_string(static_cast<int>(
                  std::lround(100.0 * static_cast<double>(cell.self_ns) /
                              static_cast<double>(b)))) +
                  "%";
    std::snprintf(buf, sizeof(buf), "%-16s %-40s %10.1f %12.3f %7s\n",
                  key.first.c_str(), key.second.c_str(),
                  static_cast<double>(cell.calls) / n,
                  static_cast<double>(cell.self_ns) / 1e6 / n, share.c_str());
    out += buf;
  }
  return out;
}

bool WriteAnnotatedTrace(const std::string& path,
                         const std::vector<Request>& requests,
                         const std::vector<Event>& events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    std::fprintf(f,
                 "%s  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"request\": %d, \"kind\": \"%s\"}}",
                 i == 0 ? "" : ",\n", e.name.c_str(), e.tid,
                 static_cast<double>(e.start_ns) / 1e3,
                 static_cast<double>(e.end_ns - e.start_ns) / 1e3, e.request,
                 e.request < 0 ? "" : requests[e.request].kind);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
