// dmr::redist — registered application buffers and their distributions.
//
// Applications describe every piece of resize-relevant state as a
// dmr::redist::Buffer (element size, global count, layout) and bind the
// rank-local storage behind it into a Registry.  On a resize,
// send_buffers / recv_buffers (redist/move.hpp) move *all* registered
// buffers across an old -> new process set without knowing anything
// about the application — the generalization of the paper's Listing 3,
// where each OmpSs "onto" clause names one distributed structure.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "rt/redistribute.hpp"

namespace dmr::redist {

/// How a buffer's elements map onto the ranks of a communicator.
enum class Layout {
  /// Balanced contiguous blocks (the paper's row-block distribution).
  Block,
  /// Every rank holds the full buffer (Krylov scalars, step counters).
  Replicated,
};

/// Descriptor of one registered application buffer.  An "element" is the
/// indivisible unit of distribution — e.g. one matrix *row* of n doubles
/// for a row-block matrix, so elem_size = n * sizeof(double).
struct Buffer {
  std::string name;
  std::size_t elem_size = 0;  ///< bytes per element
  std::size_t count = 0;      ///< global element count
  Layout layout = Layout::Block;

  /// Global payload bytes (one copy; replication not counted).
  std::size_t bytes_total() const { return elem_size * count; }
};

/// Element placement of a Buffer over `parts` ranks: where each global
/// element lives and how a rank's local storage is ordered.
class Distribution {
 public:
  Distribution(const Buffer& desc, int parts);

  /// Elements held locally by `rank` (== total for Replicated).
  std::size_t local_count(int rank) const;

  struct Place {
    int rank = 0;
    std::size_t offset = 0;  ///< element offset into the rank's storage
  };
  /// Owner of a global element (the canonical rank-0 copy for
  /// Replicated buffers).
  Place locate(std::size_t index) const;

  /// Number of elements from `index` onward that remain contiguous both
  /// globally and in the owner's local storage (always >= 1).
  std::size_t run_length(std::size_t index) const;

  /// Invoke fn(global_index, elems) for each contiguous run of `rank`'s
  /// local elements, in local storage order.  Used to convert between
  /// rank-local and canonical global orderings.
  void for_each_local_run(
      int rank,
      const std::function<void(std::size_t, std::size_t)>& fn) const;

 private:
  Layout layout_;
  std::size_t total_;
  int parts_;
};

/// One contiguous copy between an old-layout rank and a new-layout rank.
struct Transfer {
  int src_rank = 0;
  int dst_rank = 0;
  std::size_t src_offset = 0;  ///< local element offset on the source rank
  std::size_t dst_offset = 0;  ///< local element offset on the destination
  std::size_t count = 0;       ///< elements
};

/// Overlap plan moving one buffer from `old_parts` to `new_parts` ranks.
/// For Block buffers the transfers partition the global index space
/// (every element moves exactly once); for Replicated buffers every new
/// rank receives exactly one full copy, sourced round-robin from the old
/// ranks.  Offsets are local *element* offsets.
std::vector<Transfer> plan_transfers(const Buffer& desc, int old_parts,
                                     int new_parts);

/// Rank-local binding of a registered buffer: type-erased access to the
/// storage backing it on this rank.
struct Binding {
  Buffer desc;
  /// Current local bytes (local_count(rank) * elem_size once laid out).
  std::function<std::span<const std::byte>()> read;
  /// Resize the local storage to `elems` elements and return it writable.
  std::function<std::span<std::byte>(std::size_t)> resize;
};

/// The per-rank set of registered buffers.  Registration order is the
/// wire order the movement follows, so it must be identical on all
/// ranks of both process sets.
///
/// Non-copyable and non-movable: bindings close over references to the
/// owner's member storage, so a copied or moved registry would silently
/// alias (or dangle from) the original object's vectors.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  Registry(Registry&&) = delete;
  Registry& operator=(Registry&&) = delete;

  /// Generic registration; prefer the typed helpers below.
  void add(Buffer desc, std::function<std::span<const std::byte>()> read,
           std::function<std::span<std::byte>(std::size_t)> resize);

  /// Block-distributed vector; a logical element is `items_per_element`
  /// consecutive T's (e.g. one matrix row of n doubles).
  template <typename T>
  void add_block(std::string name, std::vector<T>& storage,
                 std::size_t global_count,
                 std::size_t items_per_element = 1) {
    add_vector(std::move(name), storage, global_count, Layout::Block,
               items_per_element);
  }

  /// Every rank holds the full vector (identical across ranks).
  template <typename T>
  void add_replicated(std::string name, std::vector<T>& storage,
                      std::size_t global_count) {
    add_vector(std::move(name), storage, global_count, Layout::Replicated, 1);
  }

  /// A single replicated value (Krylov rho, iteration counters, ...).
  template <typename T>
  void add_scalar(std::string name, T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Buffer desc;
    desc.name = std::move(name);
    desc.elem_size = sizeof(T);
    desc.count = 1;
    desc.layout = Layout::Replicated;
    add(std::move(desc),
        [&value] {
          return std::as_bytes(std::span<const T>(&value, 1));
        },
        [&value](std::size_t elems) {
          if (elems != 1) {
            throw std::invalid_argument("redist: scalar resized to != 1");
          }
          return std::as_writable_bytes(std::span<T>(&value, 1));
        });
  }

  std::size_t size() const { return bindings_.size(); }
  bool empty() const { return bindings_.empty(); }
  Binding& at(std::size_t index) { return bindings_.at(index); }
  const Binding& at(std::size_t index) const { return bindings_.at(index); }
  const Binding* find(std::string_view name) const;

  /// Sum of each buffer's global payload bytes.
  std::size_t total_bytes() const;

  void clear() { bindings_.clear(); }

 private:
  template <typename T>
  void add_vector(std::string name, std::vector<T>& storage,
                  std::size_t global_count, Layout layout,
                  std::size_t items_per_element) {
    static_assert(std::is_trivially_copyable_v<T>);
    Buffer desc;
    desc.name = std::move(name);
    desc.elem_size = sizeof(T) * items_per_element;
    desc.count = global_count;
    desc.layout = layout;
    add(std::move(desc),
        [&storage] {
          return std::as_bytes(
              std::span<const T>(storage.data(), storage.size()));
        },
        [&storage, items_per_element](std::size_t elems) {
          storage.resize(elems * items_per_element);
          return std::as_writable_bytes(
              std::span<T>(storage.data(), storage.size()));
        });
  }

  std::vector<Binding> bindings_;
};

}  // namespace dmr::redist
