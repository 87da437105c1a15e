// Checkpoint file store: the Checkpoint/Restart comparator of Fig. 1.
//
// The C/R approach to malleability saves the full application state to
// disk, tears the job down and restarts it with a different process
// count.  The store performs real file I/O (with fsync by default) so the
// Fig. 1 bench measures a genuine disk round-trip against the DMR API's
// in-memory redistribution.
#pragma once

#include <cstddef>
#include <filesystem>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace dmr::ckpt {

struct CheckpointOptions {
  std::filesystem::path directory;
  /// Force data to stable storage on write (SCR-style durability).
  bool fsync = true;
};

class CheckpointStore {
 public:
  explicit CheckpointStore(CheckpointOptions options);

  /// Write (overwrite) a checkpoint; durable when options.fsync is set.
  void write(const std::string& name, std::span<const std::byte> data);

  /// Read a checkpoint back.
  std::vector<std::byte> read(const std::string& name) const;

  bool exists(const std::string& name) const;
  void remove(const std::string& name);
  /// Remove every checkpoint in the directory.
  void clear();

  /// Telemetry for benches.  Counters are mutex-guarded so concurrent
  /// rank threads can share one store.
  std::size_t bytes_written() const;
  std::size_t bytes_read() const;
  int writes() const;
  int reads() const;

 private:
  std::filesystem::path path_for(const std::string& name) const;
  CheckpointOptions options_;
  mutable std::mutex mu_;
  std::size_t bytes_written_ = 0;
  mutable std::size_t bytes_read_ = 0;
  int writes_ = 0;
  mutable int reads_ = 0;
};

}  // namespace dmr::ckpt
