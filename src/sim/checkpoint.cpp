#include "sim/checkpoint.hpp"

#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/vec3.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

namespace aquamac {

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

// --- StateWriter -------------------------------------------------------

void StateWriter::write_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void StateWriter::write_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void StateWriter::write_i64(std::int64_t v) { write_u64(std::bit_cast<std::uint64_t>(v)); }

void StateWriter::write_f64(double v) { write_u64(std::bit_cast<std::uint64_t>(v)); }

void StateWriter::write_string(std::string_view v) {
  write_u64(v.size());
  buf_.append(v);
}

void StateWriter::write_time(Time t) { write_i64(t.count_ns()); }

void StateWriter::write_duration(Duration d) { write_i64(d.count_ns()); }

void StateWriter::section(std::string_view name,
                          const std::function<void(StateWriter&)>& body) {
  StateWriter inner;
  body(inner);
  write_string(name);
  write_string(inner.buf_);
}

// --- StateReader -------------------------------------------------------

std::string_view StateReader::take(std::size_t n) {
  if (n > remaining()) {
    throw CheckpointError("checkpoint payload truncated: need " + std::to_string(n) +
                          " bytes at offset " + std::to_string(pos_) + ", have " +
                          std::to_string(remaining()));
  }
  const std::string_view out = bytes_.substr(pos_, n);
  pos_ += n;
  return out;
}

std::uint8_t StateReader::read_u8() {
  return static_cast<std::uint8_t>(take(1).front());
}

std::uint32_t StateReader::read_u32() {
  const std::string_view raw = take(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(raw[static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

std::uint64_t StateReader::read_u64() {
  const std::string_view raw = take(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(raw[static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

std::int64_t StateReader::read_i64() { return std::bit_cast<std::int64_t>(read_u64()); }

double StateReader::read_f64() { return std::bit_cast<double>(read_u64()); }

bool StateReader::read_bool() { return read_u8() != 0; }

std::string StateReader::read_string() {
  const std::uint64_t len = read_u64();
  return std::string{take(static_cast<std::size_t>(len))};
}

Time StateReader::read_time() { return Time::from_ns(read_i64()); }

Duration StateReader::read_duration() { return Duration::nanoseconds(read_i64()); }

void StateReader::section(std::string_view name,
                          const std::function<void(StateReader&)>& body) {
  const std::string found = read_string();
  if (found != name) {
    throw CheckpointError("checkpoint layout skew: expected section '" + std::string{name} +
                          "', found '" + found + "'");
  }
  const std::uint64_t len = read_u64();
  StateReader inner{take(static_cast<std::size_t>(len))};
  body(inner);
  if (inner.remaining() != 0) {
    throw CheckpointError("checkpoint section '" + std::string{name} + "' has " +
                          std::to_string(inner.remaining()) + " unconsumed bytes");
  }
}

// --- StateArchive ------------------------------------------------------

void StateArchive::value(bool& v) {
  if (loading()) v = reader_->read_bool();
  else writer_->write_bool(v);
}

void StateArchive::value(std::uint8_t& v) {
  if (loading()) v = reader_->read_u8();
  else writer_->write_u8(v);
}

void StateArchive::value(std::uint32_t& v) {
  if (loading()) v = reader_->read_u32();
  else writer_->write_u32(v);
}

void StateArchive::value(std::uint64_t& v) {
  if (loading()) v = reader_->read_u64();
  else writer_->write_u64(v);
}

void StateArchive::value(std::int64_t& v) {
  if (loading()) v = reader_->read_i64();
  else writer_->write_i64(v);
}

void StateArchive::value(double& v) {
  if (loading()) v = reader_->read_f64();
  else writer_->write_f64(v);
}

void StateArchive::value(Time& v) {
  if (loading()) v = reader_->read_time();
  else writer_->write_time(v);
}

void StateArchive::value(Duration& v) {
  if (loading()) v = reader_->read_duration();
  else writer_->write_duration(v);
}

void StateArchive::value(Vec3& v) { (*this)(v.x, v.y, v.z); }

void StateArchive::value(Rng& rng) {
  Rng::State words = rng.state();
  for (std::uint64_t& word : words) value(word);
  if (loading()) rng.set_state(words);
}

void StateArchive::handle(const EventHandle& h) {
  expect(!h.is_null(), "mac restore: event-handle armed bit diverges from replayed schedule");
}

void StateArchive::section(std::string_view name,
                           const std::function<void(StateArchive&)>& body) {
  if (loading()) {
    reader_->section(name, [&body](StateReader& r) {
      StateArchive inner{r};
      body(inner);
    });
  } else {
    writer_->section(name, [&body](StateWriter& w) {
      StateArchive inner{w};
      body(inner);
    });
  }
}

// --- container ---------------------------------------------------------

void write_checkpoint(std::ostream& os, const Checkpoint& ckpt) {
  StateWriter w;
  w.write_string(kCheckpointMagic);
  w.write_string(ckpt.scenario_text);
  w.write_time(ckpt.at);
  w.write_string(ckpt.payload);
  StateWriter tail;
  tail.write_u64(fnv1a(w.bytes()));
  os.write(w.bytes().data(), static_cast<std::streamsize>(w.bytes().size()));
  os.write(tail.bytes().data(), static_cast<std::streamsize>(tail.bytes().size()));
}

void write_checkpoint_file(const Checkpoint& ckpt, const std::string& path) {
  std::ofstream os{path, std::ios::binary};
  if (!os) throw CheckpointError("cannot open " + path + " for writing");
  write_checkpoint(os, ckpt);
  if (!os) throw CheckpointError("failed writing checkpoint to " + path);
}

Checkpoint read_checkpoint(std::istream& is) {
  // One bulk copy: an istreambuf_iterator range moves a byte per call.
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string blob = std::move(buffer).str();
  if (blob.size() < 8) throw CheckpointError("checkpoint truncated: no digest trailer");
  const std::string_view body_bytes = std::string_view{blob}.substr(0, blob.size() - 8);

  StateReader body{body_bytes};
  Checkpoint out;
  // Magic first: a version-skewed file gets a version error, not a
  // digest error, even though its digest also differs.
  const std::string magic = body.read_string();
  if (magic != kCheckpointMagic) {
    throw CheckpointError("unsupported checkpoint format '" + magic + "' (this build reads '" +
                          std::string{kCheckpointMagic} + "')");
  }
  StateReader tail{std::string_view{blob}.substr(blob.size() - 8)};
  const std::uint64_t stored = tail.read_u64();
  const std::uint64_t actual = fnv1a(body_bytes);
  if (stored != actual) {
    throw CheckpointError("checkpoint digest mismatch: file is corrupt (stored " +
                          std::to_string(stored) + ", computed " + std::to_string(actual) +
                          ")");
  }
  out.scenario_text = body.read_string();
  out.at = body.read_time();
  out.payload = body.read_string();
  if (body.remaining() != 0) {
    throw CheckpointError("checkpoint has " + std::to_string(body.remaining()) +
                          " trailing bytes before the digest");
  }
  return out;
}

Checkpoint read_checkpoint_file(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is) throw CheckpointError("cannot open checkpoint file " + path);
  return read_checkpoint(is);
}

// --- divergence diagnostics -------------------------------------------

namespace {

struct Section {
  std::string name;
  std::string_view body;
};

/// Top-level section table of a payload; nullopt if it does not parse.
std::optional<std::vector<Section>> parse_sections(std::string_view payload) {
  std::vector<Section> out;
  std::size_t pos = 0;
  const auto read_len = [&payload, &pos](std::uint64_t& v) {
    if (payload.size() - pos < 8) return false;
    v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(payload[pos + i])) << (8 * i);
    }
    pos += 8;
    return true;
  };
  while (pos < payload.size()) {
    std::uint64_t name_len = 0;
    if (!read_len(name_len) || name_len > payload.size() - pos) return std::nullopt;
    Section s;
    s.name = std::string{payload.substr(pos, static_cast<std::size_t>(name_len))};
    pos += static_cast<std::size_t>(name_len);
    std::uint64_t body_len = 0;
    if (!read_len(body_len) || body_len > payload.size() - pos) return std::nullopt;
    s.body = payload.substr(pos, static_cast<std::size_t>(body_len));
    pos += static_cast<std::size_t>(body_len);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

std::string describe_payload_difference(std::string_view expected, std::string_view actual) {
  if (expected == actual) return {};
  const auto exp = parse_sections(expected);
  const auto act = parse_sections(actual);
  if (!exp || !act) return "payloads differ (section table unparseable)";
  const std::size_t n = std::min(exp->size(), act->size());
  for (std::size_t k = 0; k < n; ++k) {
    const Section& e = (*exp)[k];
    const Section& a = (*act)[k];
    if (e.name != a.name) {
      return "section #" + std::to_string(k) + " name differs: '" + e.name + "' vs '" +
             a.name + "'";
    }
    if (e.body != a.body) return "section '" + e.name + "' differs";
  }
  if (exp->size() != act->size()) {
    return "section count differs: " + std::to_string(exp->size()) + " vs " +
           std::to_string(act->size());
  }
  return "payloads differ outside any section";
}

}  // namespace aquamac
