#include "stats/trace.hpp"

#include <algorithm>
#include <bit>
#include <ostream>
#include <sstream>

namespace aquamac {

// Plot-facing serialization: every kind must map to a stable mnemonic
// (plot_results.py and the CSV schema key on these strings).
std::string_view to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kTxStart: return "TX";
    case TraceEventKind::kRxOk: return "RX";
    case TraceEventKind::kRxLost: return "LOST";
    case TraceEventKind::kMacState: return "STATE";
    case TraceEventKind::kSlotBoundary: return "SLOT";
    case TraceEventKind::kContentionWin: return "WIN";
    case TraceEventKind::kContentionLoss: return "LOSE";
    case TraceEventKind::kExtraNegotiated: return "EXNEG";
    case TraceEventKind::kExtraScheduled: return "EXPLAN";
    case TraceEventKind::kNeighborUpdate: return "NBR";
    case TraceEventKind::kFaultNodeDown: return "DOWN";
    case TraceEventKind::kFaultNodeUp: return "UP";
    case TraceEventKind::kFaultClockStep: return "CLKSTEP";
    case TraceEventKind::kFaultBurstBegin: return "BURST+";
    case TraceEventKind::kFaultBurstEnd: return "BURST-";
    case TraceEventKind::kFaultStormBegin: return "STORM+";
    case TraceEventKind::kFaultStormEnd: return "STORM-";
    case TraceEventKind::kNeighborEvicted: return "EVICT";
    case TraceEventKind::kNeighborDead: return "NBRDEAD";
    case TraceEventKind::kNeighborProbe: return "PROBE";
    case TraceEventKind::kRouteUpdate: return "ROUTE";
    case TraceEventKind::kRelayOriginate: return "RELAYSRC";
    case TraceEventKind::kRelayForward: return "RELAYFWD";
    case TraceEventKind::kRelayArrive: return "RELAYDST";
    case TraceEventKind::kRelayRetry: return "RELAYRETRY";
    case TraceEventKind::kRelayRequeue: return "RELAYREQUEUE";
    case TraceEventKind::kRelayDeadLetter: return "RELAYDEADLETTER";
  }
  return "?";
}

std::string TraceEvent::to_csv_row() const {
  std::ostringstream os;
  os << at.count_ns() << ',' << to_string(kind) << ',' << node << ','
     << aquamac::to_string(frame_type) << ',' << src << ',' << dst << ',' << seq << ','
     << bits;
  if (kind == TraceEventKind::kRxLost) {
    switch (outcome) {
      case RxOutcome::kCollision: os << ",collision"; break;
      case RxOutcome::kHalfDuplexLoss: os << ",half-duplex"; break;
      case RxOutcome::kChannelError: os << ",channel-error"; break;
      case RxOutcome::kBelowThreshold: os << ",below-threshold"; break;
      case RxOutcome::kSuccess: os << ",?"; break;
    }
  } else {
    os << ",";
  }
  os << ',' << window_begin.count_ns() << ',' << window_end.count_ns() << ',' << a << ','
     << b << ',' << value;
  return os.str();
}

std::size_t MemoryTrace::count(TraceEventKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const TraceEvent& e) { return e.kind == kind; }));
}

std::size_t MemoryTrace::count_frames(FrameType type) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [type](const TraceEvent& e) { return e.frame_type == type; }));
}

bool MemoryTrace::is_time_ordered() const {
  for (std::size_t i = 1; i < events_.size(); ++i) {
    if (events_[i].at < events_[i - 1].at) return false;
  }
  return true;
}

CsvTrace::CsvTrace(std::ostream& os) : os_{os} {
  os_ << "t_ns,event,node,frame,src,dst,seq,bits,loss,win_begin_ns,win_end_ns,a,b,value\n";
}

void CsvTrace::record(const TraceEvent& event) { os_ << event.to_csv_row() << '\n'; }

void HashTrace::mix(std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (value >> (byte * 8)) & 0xFF;
    hash_ *= 1099511628211ULL;
  }
}

void HashTrace::record(const TraceEvent& event) {
  mix(static_cast<std::uint64_t>(event.at.count_ns()));
  mix(static_cast<std::uint64_t>(event.kind));
  mix(event.node);
  mix(static_cast<std::uint64_t>(event.frame_type));
  mix(event.src);
  mix(event.dst);
  mix(event.seq);
  mix(event.bits);
  mix(static_cast<std::uint64_t>(event.outcome));
  mix(static_cast<std::uint64_t>(event.window_begin.count_ns()));
  mix(static_cast<std::uint64_t>(event.window_end.count_ns()));
  mix(static_cast<std::uint64_t>(event.a));
  mix(static_cast<std::uint64_t>(event.b));
  mix(std::bit_cast<std::uint64_t>(event.value));
}

void merge_traces(const std::vector<std::unique_ptr<MemoryTrace>>& runs, TraceSink& out) {
  struct Key {
    Time at;
    std::size_t run;
    std::size_t idx;
  };
  std::vector<Key> keys;
  std::size_t total = 0;
  for (const auto& run : runs) {
    if (run != nullptr) total += run->size();
  }
  keys.reserve(total);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (runs[r] == nullptr) continue;
    const auto& events = runs[r]->events();
    for (std::size_t i = 0; i < events.size(); ++i) keys.push_back(Key{events[i].at, r, i});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& x, const Key& y) {
    if (x.at != y.at) return x.at < y.at;
    if (x.run != y.run) return x.run < y.run;
    return x.idx < y.idx;
  });
  for (const Key& key : keys) out.record(runs[key.run]->events()[key.idx]);
}

}  // namespace aquamac
