#ifndef MLLIBSTAR_TRAIN_CHECKPOINT_H_
#define MLLIBSTAR_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "comm/error_feedback.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "core/vector.h"

namespace mllibstar {

/// When and where a trainer snapshots its state.
struct CheckpointConfig {
  /// Snapshot file. Empty disables checkpointing entirely.
  std::string path;
  /// Snapshot after every N completed communication steps (0 = never
  /// write, which still allows resuming from an existing file).
  int every_steps = 0;
  /// Load `path` before training and continue from it. Starting fresh
  /// when the file does not exist yet lets one flag serve both the
  /// first run and every restart.
  bool resume = false;

  bool enabled() const { return !path.empty(); }
};

/// First word of every trainer snapshot: which trainer family wrote it
/// (resuming a Petuum run from an MLlib checkpoint is a bug, not a
/// format guess).
enum class CheckpointTag : uint64_t {
  kMllib = 1,
  kMllibMa = 2,
  kMllibStar = 3,
  kPs = 4,
  kLbfgs = 5,
  kPath = 6,  ///< regularization-path driver state (workloads/path_search)
};

/// A flat, typed word store for trainer snapshots. Everything —
/// iteration counters, RNG cursors, model weights, error-feedback
/// residuals — serializes to uint64 words; doubles travel as raw bit
/// patterns, so a write/read round trip is bit-exact and a resumed run
/// reproduces the uninterrupted run's weights EXACTLY (EXPECT_EQ, not
/// EXPECT_NEAR).
///
/// Fields are two-way, so each trainer declares its layout once: one
/// function calls Field/List/Each/Through on every piece of its state
/// in a fixed order. A fresh store is saving, and each call appends the
/// current value. After ReadFile the store is restoring, and the same
/// calls replace each value with the stored one, in the same order.
class Checkpoint {
 public:
  /// The tag + num_classes words that open every trainer snapshot.
  /// Restoring checks both against the resuming run.
  void Header(CheckpointTag tag, size_t num_classes);

  /// An integer, or a flag as 0/1: one word.
  template <typename Int,
            typename = std::enable_if_t<std::is_integral_v<Int>>>
  void Field(Int* v) {
    uint64_t word = static_cast<uint64_t>(*v);
    Word(&word);
    *v = static_cast<Int>(word);
  }
  /// A double as its bit pattern: one word.
  void Field(double* v);
  /// Length word, then the elements; restoring resizes to the length.
  void Field(std::vector<double>* v);
  void Field(std::vector<uint64_t>* v);
  void Field(DenseVector* v);
  /// The generator's cursor (Rng::kStateWords words).
  void Field(Rng* rng);
  /// Stream count (0 when disabled), then each residual. Restoring
  /// requires the same stream count and residual dimensions.
  void Field(ErrorFeedback* ef);

  /// Count word, then each element. Restoring checks the count against
  /// the list's current size (the shape the run was configured with)
  /// and restores the elements in place.
  template <typename T>
  void List(std::vector<T>* v) {
    uint64_t n = v->size();
    Field(&n);
    MLLIBSTAR_CHECK_EQ(n, v->size());
    Each(v);
  }
  /// Each element with no count word: both sides know the size.
  template <typename T>
  void Each(std::vector<T>* v) {
    for (size_t i = 0; i < v->size(); ++i) {
      if constexpr (std::is_same_v<T, bool>) {
        bool b = (*v)[i];
        Field(&b);
        (*v)[i] = b;
      } else {
        Field(&(*v)[i]);
      }
    }
  }
  /// State its owner exposes only as a save/restore pair (engine and
  /// membership words, virtual clocks): saving stores save()'s value,
  /// restoring hands the stored value to restore().
  template <typename Save, typename Restore>
  void Through(const Save& save, const Restore& restore) {
    using Value = std::decay_t<decltype(save())>;
    Value value = restoring_ ? Value{} : save();
    Field(&value);
    if (restoring_) restore(value);
  }

  /// True once every word has been consumed (a resume that does not
  /// drain the file exactly indicates a format mismatch).
  bool exhausted() const { return cursor_ == words_.size(); }

  // -- Persistence ----------------------------------------------------
  /// Writes atomically: the snapshot lands in `path + ".tmp"` first and
  /// is renamed over `path`, so a crash mid-write never corrupts the
  /// previous checkpoint.
  Status WriteFile(const std::string& path) const;

  /// Replaces this checkpoint's contents with the file and switches it
  /// to restoring from the first word. Fails on missing file, bad
  /// magic, or truncation.
  Status ReadFile(const std::string& path);

  /// True when `path` exists and carries the checkpoint magic.
  static bool Exists(const std::string& path);

 private:
  /// Appends *w (saving) or replaces it with the next word (restoring).
  void Word(uint64_t* w);
  /// A block's length word: saving writes n, restoring returns the
  /// stored length once it is known to fit in the file.
  uint64_t Length(size_t n);
  /// n words at `data`, moved with one bulk copy each way.
  void Bulk(void* data, size_t n);

  std::vector<uint64_t> words_;
  size_t cursor_ = 0;
  bool restoring_ = false;
};

/// True when the trainer should snapshot after completing `step`.
bool ShouldCheckpoint(const CheckpointConfig& config, int step);

/// Loads `config.path` into *ck when resume is requested and the file
/// exists; returns whether it did. A missing file means "first run".
bool TryResume(const CheckpointConfig& config, Checkpoint* ck);

/// A trainer's checkpoint layout: the one function that both saves and
/// restores its state (see Checkpoint).
using CheckpointLayout = std::function<void(Checkpoint*)>;

/// Restores `layout` from config.path when TryResume loads it, and
/// checks that the layout consumed the whole file. Returns whether it
/// resumed.
bool RestoreCheckpoint(const CheckpointConfig& config,
                       const CheckpointLayout& layout);

/// Saves `layout` to config.path.
void SaveCheckpoint(const CheckpointConfig& config,
                    const CheckpointLayout& layout);

}  // namespace mllibstar

#endif  // MLLIBSTAR_TRAIN_CHECKPOINT_H_
