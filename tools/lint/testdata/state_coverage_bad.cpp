// Known-bad state-coverage corpus: a member missing from visit_state, a
// member right after a trailing ckpt-skip (which exempts only its own
// line), a nested state struct with an uncovered field, and a field
// missing from a for_each_field list. Four findings expected.
namespace aquamac {

class StateArchive;

void visit_long(StateArchive& ar, long& v);

class Queue {
 public:
  void visit_state(StateArchive& ar);

 private:
  struct Slot {
    long seq{0};
    long deadline{0};
  };

  long head_{0};
  long highwater_{0};  // referenced nowhere
  long limit_{0};      // lint: ckpt-skip(config)
  long drift_{0};
  Slot slot_{};
};

void Queue::visit_state(StateArchive& ar) {
  visit_long(ar, head_);
  visit_long(ar, slot_.seq);
}

struct Tally {
  long sent{0};
  long received{0};  // missing from the field list

  template <class Fn, class... T>
  static void for_each_field(Fn&& fn, T&... t) {
    fn("sent", t.sent...);
  }
};

}  // namespace aquamac
