// Mutation self-test for state-coverage: this file is
// state_coverage_good.cpp with the `visit_long(ar, depth_)` reference
// deleted from visit_state. The rule must fire on exactly that member —
// proving a dropped field reference cannot pass the wall silently.
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
