// Known-good state-coverage corpus: every member is referenced in its
// class's one state body, auto-exempt (reference/pointer/const wiring),
// or carries a reasoned ckpt-skip. The nested state struct is covered
// through a helper taking the StateArchive; the counters class through
// its for_each_field list.
namespace aquamac {

class StateArchive;

void visit_long(StateArchive& ar, long& v);

class Channel {
 public:
  void visit_state(StateArchive& ar);

 private:
  struct Clock {
    long ticks{0};
    double skew{0.0};
  };

  long depth_{0};
  Clock clock_{};
  double* scratch_{nullptr};
  const long limit_{8};
  StateArchive& sink_;
  long epoch_{0};  // lint: ckpt-skip(derived from config at construction)
};

void visit_clock(StateArchive& ar, Channel::Clock& clock);

void Channel::visit_state(StateArchive& ar) {
  visit_long(ar, depth_);
  visit_clock(ar, clock_);
}

void visit_clock(StateArchive& ar, Channel::Clock& clock) {
  visit_long(ar, clock.ticks);
  long skew = static_cast<long>(clock.skew);
  visit_long(ar, skew);
}

struct Tally {
  long sent{0};
  long received{0};

  template <class Fn, class... T>
  static void for_each_field(Fn&& fn, T&... t) {
    fn("sent", t.sent...);
    fn("received", t.received...);
  }
};

}  // namespace aquamac
