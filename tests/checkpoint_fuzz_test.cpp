// Checkpoint files are untrusted input. Seeded mutations of every
// committed golden container (tests/data/state_golden/*.ckpt) — byte
// flips, inserts, deletes and truncations — must each either decode or
// throw CheckpointError, and nothing else. Each mutant is read twice: as
// mutated, where the digest trailer rejects almost everything, and with
// its digest recomputed, so the length-prefixed fields behind the digest
// meet the damaged bytes too. A container that decodes has its payload's
// section table walked against the original's.
//
// The suite name is matched by the CI checkpoint-soak step; the
// sanitizer job runs it like every other ctest.

#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "sim/checkpoint.hpp"
#include "util/rng.hpp"

#ifndef AQUAMAC_GOLDEN_DIR
#error "AQUAMAC_GOLDEN_DIR must name tests/data/state_golden"
#endif

namespace aquamac {
namespace {

constexpr int kMutations = 5'000;

std::vector<std::string> fixture_names() {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator{AQUAMAC_GOLDEN_DIR}) {
    if (entry.path().extension() == ".ckpt") names.push_back(entry.path().stem().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string read_fixture(const std::string& name) {
  std::ifstream is{std::string{AQUAMAC_GOLDEN_DIR} + "/" + name + ".ckpt", std::ios::binary};
  return std::string{std::istreambuf_iterator<char>{is}, std::istreambuf_iterator<char>{}};
}

/// One to three seeded edits: flip a bit, insert a byte, delete a run of
/// up to 16 bytes, or truncate.
void mutate(Rng& rng, std::string& bytes) {
  for (std::uint64_t edits = 1 + rng() % 3; edits > 0 && !bytes.empty(); --edits) {
    const std::size_t at = rng() % bytes.size();
    switch (rng() % 4) {
      case 0: bytes[at] = static_cast<char>(bytes[at] ^ (1 << (rng() % 8))); break;
      case 1: bytes.insert(at, 1, static_cast<char>(rng() % 256)); break;
      case 2: bytes.erase(at, 1 + rng() % 16); break;
      default: bytes.resize(at); break;
    }
  }
}

/// `bytes` with the digest trailer replaced by the digest of the rest.
std::string resealed(const std::string& bytes) {
  if (bytes.size() < 8) return bytes;
  const std::string body = bytes.substr(0, bytes.size() - 8);
  StateWriter tail;
  tail.write_u64(fnv1a(body));
  return body + tail.bytes();
}

enum class Outcome { kDecoded, kRejected };

/// read_checkpoint on `bytes`; fails the test on anything but a
/// returned container or CheckpointError.
Outcome read(const std::string& bytes, const std::string& original_payload, int mutation) {
  try {
    std::istringstream is{bytes};
    const Checkpoint ckpt = read_checkpoint(is);
    (void)describe_payload_difference(original_payload, ckpt.payload);
    return Outcome::kDecoded;
  } catch (const CheckpointError&) {
    return Outcome::kRejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "mutation " << mutation << " threw " << e.what();
  } catch (...) {
    ADD_FAILURE() << "mutation " << mutation << " threw a non-std exception";
  }
  return Outcome::kRejected;
}

class CheckpointFuzz : public ::testing::TestWithParam<std::string> {};

TEST_P(CheckpointFuzz, MutationsDecodeOrThrowCheckpointError) {
  const std::string original = read_fixture(GetParam());
  ASSERT_GT(original.size(), 8u) << "missing fixture " << GetParam();
  std::istringstream is{original};
  const std::string payload = read_checkpoint(is).payload;

  Rng rng{20'261'018};
  int sealed_decoded = 0;
  int sealed_rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::string bytes = original;
    mutate(rng, bytes);
    (void)read(bytes, payload, i);
    if (read(resealed(bytes), payload, i) == Outcome::kDecoded) {
      ++sealed_decoded;
    } else {
      ++sealed_rejected;
    }
    if (HasFailure()) return;
  }
  // Both outcomes must occur behind the digest, or the resealed pass
  // never reached the field parser.
  EXPECT_GT(sealed_decoded, 0);
  EXPECT_GT(sealed_rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Golden, CheckpointFuzz, ::testing::ValuesIn(fixture_names()),
                         [](const auto& param_info) { return param_info.param; });

}  // namespace
}  // namespace aquamac
