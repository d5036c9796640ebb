// Known-bad lint-directive corpus: an unknown directive name and a skip
// exemption without a reason. Two findings expected.
namespace aquamac {

// lint: frobnicate(everything)
// lint: ckpt-skip()
long configure();

}  // namespace aquamac
