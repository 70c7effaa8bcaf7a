// Per-layer attribution of a traced pass, computed from outside the
// library: the library's own obs spans (service.*, store.*, repair.*,
// pipeline.*) plus the benchmark's spans around each public call and
// each shadow call, all read back from the Chrome trace the obs layer
// writes.
//
// A request is one client operation: its envelope covers the shadow
// calls made on the operation's inputs and the public call itself. An
// event belongs to the request whose envelope holds its start, on any
// thread, which is exact for a closed-loop client: at most one request
// is in flight, and the merge thread only works inside a Flush.

#ifndef PERFBENCH_ATTRIBUTION_H_
#define PERFBENCH_ATTRIBUTION_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Event {
  std::string name;
  int tid = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Duration minus what its children cover: direct children on its
  // thread and, for a request's client span, the request's work on
  // other threads (the merge thread inside a Flush).
  int64_t self_ns = 0;
  int request = -1;  // index into the request list, or -1
  // Name of the outermost shadow span enclosing this event (itself
  // included), or empty. Library spans a shadow call opens are shown
  // under it, apart from the public call's.
  std::string shadow;
};

struct Request {
  const char* kind;  // the client span's name
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Parses the events of obs::WriteChromeTrace output.
bool LoadChromeTrace(const std::string& path, std::vector<Event>* events);

// Fills Event::self_ns, Event::request and Event::shadow. `requests`
// must be in start order and must not overlap; a request's client span
// is the benchmark span named after its kind.
void Attribute(const std::vector<Request>& requests,
               std::vector<Event>* events);

// Self time summed by (request kind, span name) over traced passes.
class SelfTimeTable {
 public:
  void Add(const std::vector<Request>& requests,
           const std::vector<Event>& events);
  // One row per (kind, span): calls and self milliseconds per pass,
  // and the span's share of its request kind's time (shadow spans,
  // which re-run a layer on the request's inputs, are shown beside the
  // public call and excluded from the share's base).
  std::string Format() const;

 private:
  struct Cell {
    int64_t calls = 0;
    int64_t self_ns = 0;
  };
  std::map<std::pair<std::string, std::string>, Cell> cells_;
  int passes_ = 0;
};

// Writes the events as Chrome trace JSON with each event's request id
// and kind in "args", for Perfetto.
bool WriteAnnotatedTrace(const std::string& path,
                         const std::vector<Request>& requests,
                         const std::vector<Event>& events);

}  // namespace perfbench

#endif  // PERFBENCH_ATTRIBUTION_H_
