#include "train/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/logging.h"
#include "obs/engine_profiler.h"

namespace mllibstar {
namespace {

// "MLCKPT1\0" as a little-endian word.
constexpr uint64_t kMagic = 0x0031545048434c4dULL;

uint64_t Fnv1a(const std::vector<uint64_t>& words) {
  uint64_t h = 1469598103934665603ULL;
  for (uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace

void Checkpoint::Header(CheckpointTag tag, size_t num_classes) {
  uint64_t stored_tag = static_cast<uint64_t>(tag);
  uint64_t stored_classes = num_classes;
  Field(&stored_tag);
  Field(&stored_classes);
  MLLIBSTAR_CHECK_EQ(stored_tag, static_cast<uint64_t>(tag));
  MLLIBSTAR_CHECK_EQ(stored_classes, num_classes);
}

void Checkpoint::Word(uint64_t* w) {
  if (!restoring_) {
    words_.push_back(*w);
    return;
  }
  MLLIBSTAR_CHECK_LT(cursor_, words_.size());
  *w = words_[cursor_++];
}

uint64_t Checkpoint::Length(size_t n) {
  uint64_t length = n;
  Word(&length);
  if (restoring_) MLLIBSTAR_CHECK_LE(length, words_.size() - cursor_);
  return length;
}

void Checkpoint::Bulk(void* data, size_t n) {
  if (n == 0) return;
  if (!restoring_) {
    const size_t at = words_.size();
    if (words_.capacity() < at + n) {
      // Grow to a power of two, as word-by-word appends do: growing by
      // whole blocks can overshoot to twice the snapshot's size.
      size_t capacity = std::max<size_t>(1, words_.capacity());
      while (capacity < at + n) capacity *= 2;
      words_.reserve(capacity);
    }
    words_.resize(at + n);
    std::memcpy(words_.data() + at, data, n * sizeof(uint64_t));
    return;
  }
  std::memcpy(data, words_.data() + cursor_, n * sizeof(uint64_t));
  cursor_ += n;
}

void Checkpoint::Field(double* v) {
  uint64_t bits = 0;
  std::memcpy(&bits, v, sizeof(bits));
  Word(&bits);
  std::memcpy(v, &bits, sizeof(bits));
}

void Checkpoint::Field(std::vector<double>* v) {
  v->resize(Length(v->size()));
  Bulk(v->data(), v->size());
}

void Checkpoint::Field(std::vector<uint64_t>* v) {
  v->resize(Length(v->size()));
  Bulk(v->data(), v->size());
}

void Checkpoint::Field(DenseVector* v) {
  const uint64_t n = Length(v->dim());
  if (v->dim() != n) *v = DenseVector(n);  // a same-sized one restores in place
  Bulk(v->data(), n);
}

void Checkpoint::Field(Rng* rng) {
  std::array<uint64_t, Rng::kStateWords> state = rng->SaveState();
  for (uint64_t& w : state) Word(&w);
  if (restoring_) rng->RestoreState(state);
}

void Checkpoint::Field(ErrorFeedback* ef) {
  uint64_t streams = ef->num_streams();  // 0 when disabled
  Field(&streams);
  MLLIBSTAR_CHECK_EQ(streams, ef->num_streams());
  for (size_t s = 0; s < streams; ++s) {
    DenseVector* residual = ef->mutable_residual(s);
    const size_t dim = residual->dim();
    Field(residual);
    MLLIBSTAR_CHECK_EQ(residual->dim(), dim);
  }
}

Status Checkpoint::WriteFile(const std::string& path) const {
  EngineProfiler::Scope ckpt_prof(Subsystem::kCheckpoint);
  EngineProfiler::Get().AddEvents(Subsystem::kCheckpoint, 1);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out.is_open()) return Status::IoError("cannot open: " + tmp);
    std::vector<uint64_t> header = {kMagic, words_.size(), Fnv1a(words_)};
    out.write(reinterpret_cast<const char*>(header.data()),
              static_cast<std::streamsize>(header.size() * sizeof(uint64_t)));
    if (!words_.empty()) {
      out.write(
          reinterpret_cast<const char*>(words_.data()),
          static_cast<std::streamsize>(words_.size() * sizeof(uint64_t)));
    }
    if (!out.good()) return Status::IoError("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename failed: " + tmp + " -> " + path);
  }
  return Status::Ok();
}

Status Checkpoint::ReadFile(const std::string& path) {
  EngineProfiler::Scope ckpt_prof(Subsystem::kCheckpoint);
  EngineProfiler::Get().AddEvents(Subsystem::kCheckpoint, 1);
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("no checkpoint at: " + path);
  uint64_t header[3] = {};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in.good() || header[0] != kMagic) {
    return Status::IoError("bad checkpoint header: " + path);
  }
  std::vector<uint64_t> words(header[1]);
  if (!words.empty()) {
    in.read(reinterpret_cast<char*>(words.data()),
            static_cast<std::streamsize>(words.size() * sizeof(uint64_t)));
  }
  if (!in.good() || Fnv1a(words) != header[2]) {
    return Status::IoError("corrupt checkpoint: " + path);
  }
  words_ = std::move(words);
  cursor_ = 0;
  restoring_ = true;
  return Status::Ok();
}

bool Checkpoint::Exists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return in.good() && magic == kMagic;
}

bool ShouldCheckpoint(const CheckpointConfig& config, int step) {
  return config.enabled() && config.every_steps > 0 &&
         step % config.every_steps == 0;
}

bool TryResume(const CheckpointConfig& config, Checkpoint* ck) {
  if (!config.enabled() || !config.resume) return false;
  if (!Checkpoint::Exists(config.path)) return false;
  MLLIBSTAR_CHECK_OK(ck->ReadFile(config.path));
  return true;
}

bool RestoreCheckpoint(const CheckpointConfig& config,
                       const CheckpointLayout& layout) {
  Checkpoint ck;
  if (!TryResume(config, &ck)) return false;
  layout(&ck);
  MLLIBSTAR_CHECK(ck.exhausted());
  return true;
}

void SaveCheckpoint(const CheckpointConfig& config,
                    const CheckpointLayout& layout) {
  Checkpoint ck;
  layout(&ck);
  MLLIBSTAR_CHECK_OK(ck.WriteFile(config.path));
}

}  // namespace mllibstar
