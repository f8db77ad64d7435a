// aml::ipc shared-memory arena: a shm_open/mmap wrapper with a versioned
// superblock and a monotonic bump allocator.
//
// The arena is the pal-level substrate the cross-process lock service is
// built on. Its allocation discipline is *deterministic replay*: the creator
// constructs the service by bump-allocating and initializing objects in a
// fixed order, then seals the segment (records the final cursor, publishes
// ready). An attacher replays the identical construction sequence — same
// sizes, same order, computed against its own mapping base — skipping the
// initializing stores, and verifies that its final cursor matches the sealed
// one. Any drift (different config, different code revision laying out
// different objects, ABI skew) is caught by that cursor check plus the
// superblock's magic/ABI/config-hash fields, instead of silently corrupting
// live lock words.
//
// There is no free(): the service's structures are fixed at construction
// (the paper's algorithms are O(N^2) words of flat arrays sized by N), so a
// monotonic bump allocator is the whole story.
#pragma once

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string>

#include <fcntl.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "aml/ipc/offset_ptr.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/config.hpp"

namespace aml::ipc {

/// Segment superblock, at offset 0 of every arena. All fields are atomics:
/// `ready` is the creator->attacher publication edge, and the rest are
/// written before it / read after it.
// AML_SHM_REGION_BEGIN
struct Superblock {
  std::atomic<std::uint64_t> magic;
  std::atomic<std::uint32_t> abi_version;
  std::atomic<std::uint32_t> ready;  ///< 0 while the creator constructs
  std::atomic<std::uint64_t> total_bytes;
  std::atomic<std::uint64_t> config_hash;
  std::atomic<std::uint64_t> final_cursor;  ///< bump cursor at seal()
  std::atomic<std::uint64_t> creator_pid;
};
// AML_SHM_REGION_END
AML_SHM_PLACEABLE(Superblock);

class ShmArena {
 public:
  static constexpr std::uint64_t kMagic = 0x414D'4C53'484D'3031ull;  // AMLSHM01
  static constexpr std::uint32_t kAbiVersion = 1;
  /// Offset of the data area: the superblock, rounded up to a cache line.
  static constexpr std::uint64_t kDataBegin =
      (sizeof(Superblock) + pal::kCacheLine - 1) & ~(pal::kCacheLine - 1);

  enum class Role : std::uint8_t { kCreator, kAttacher };

  /// Create a fresh segment (O_EXCL: fails if it already exists). The caller
  /// then bump-allocates/initializes its structures and must call seal().
  static std::unique_ptr<ShmArena> create(const std::string& name,
                                          std::uint64_t bytes,
                                          std::uint64_t config_hash,
                                          std::string* error) {
    static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                  "shm words must be address-free atomics");
    const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0) {
      set_error(error, "shm_open(create " + name + ")");
      return nullptr;
    }
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
      set_error(error, "ftruncate(" + name + ")");
      ::close(fd);
      ::shm_unlink(name.c_str());
      return nullptr;
    }
    void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                        fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
      set_error(error, "mmap(" + name + ")");
      ::shm_unlink(name.c_str());
      return nullptr;
    }
    auto arena = std::unique_ptr<ShmArena>(
        new ShmArena(name, base, bytes, Role::kCreator));
    // Fresh shm pages are zero-filled, which is a valid representation of
    // zero-valued atomics on every supported ABI; the superblock fields are
    // stored explicitly below, ready last (by seal()).
    Superblock& sb = arena->superblock();
    sb.magic.store(kMagic, std::memory_order_relaxed);  // AML_RELAXED(pre-seal superblock init)
    sb.abi_version.store(kAbiVersion, std::memory_order_relaxed);  // AML_RELAXED(pre-seal superblock init)
    sb.total_bytes.store(bytes, std::memory_order_relaxed);  // AML_RELAXED(pre-seal superblock init)
    sb.config_hash.store(config_hash, std::memory_order_relaxed);  // AML_RELAXED(pre-seal superblock init)
    sb.creator_pid.store(static_cast<std::uint64_t>(::getpid()),
                         std::memory_order_relaxed);  // AML_RELAXED(pre-seal superblock init)
    sb.ready.store(0, std::memory_order_release);  // AML_V_EDGE(ipc.arena_seal)
    return arena;
  }

  /// Attach to an existing, sealed segment. Waits up to `timeout` for the
  /// creator to seal (yielding between polls); verifies magic, ABI version
  /// and config hash. After replaying the construction sequence the caller
  /// must call verify_replay().
  static std::unique_ptr<ShmArena> attach(
      const std::string& name, std::uint64_t config_hash, std::string* error,
      std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
    const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
    if (fd < 0) {
      set_error(error, "shm_open(attach " + name + ")");
      return nullptr;
    }
    // The creator sizes the segment with a single ftruncate before any
    // attacher can observe ready, but an attacher racing construction can
    // shm_open while the segment is still zero-sized. Poll the size within
    // the same timeout budget as the ready wait below (st_size is either 0
    // or final — never partial), then map the whole segment in one go; the
    // sealed superblock's total_bytes is cross-checked against the mapped
    // size further down.
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    std::uint64_t bytes = 0;
    for (;;) {
      struct ::stat st {};
      if (::fstat(fd, &st) != 0) {
        set_error(error, "fstat(" + name + ")");
        ::close(fd);
        return nullptr;
      }
      if (static_cast<std::uint64_t>(st.st_size) >= minimum_bytes()) {
        bytes = static_cast<std::uint64_t>(st.st_size);
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        if (error != nullptr) {
          *error = "segment " + name + " still unsized after timeout " +
                   "(creator died before ftruncate?)";
        }
        ::close(fd);
        return nullptr;
      }
      ::sched_yield();
    }
    void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                        fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
      set_error(error, "mmap(" + name + ")");
      return nullptr;
    }
    auto arena = std::unique_ptr<ShmArena>(
        new ShmArena(name, base, bytes, Role::kAttacher));
    Superblock& sb = arena->superblock();
    while (sb.ready.load(std::memory_order_acquire) == 0) {  // AML_X_EDGE(ipc.arena_seal)
      if (std::chrono::steady_clock::now() >= deadline) {
        if (error != nullptr) {
          *error = "segment " + name + " never sealed (creator died " +
                   "mid-construction?)";
        }
        return nullptr;
      }
      ::sched_yield();
    }
    if (sb.magic.load(std::memory_order_relaxed) != kMagic) {  // AML_RELAXED(read after ipc.arena_seal acquire)
      if (error != nullptr) *error = "segment " + name + ": bad magic";
      return nullptr;
    }
    if (sb.abi_version.load(std::memory_order_relaxed) != kAbiVersion) {  // AML_RELAXED(read after ipc.arena_seal acquire)
      if (error != nullptr) {
        *error = "segment " + name + ": ABI version mismatch (have " +
                 std::to_string(sb.abi_version.load(
                     std::memory_order_relaxed)) +  // AML_RELAXED(read after ipc.arena_seal acquire)
                 ", want " + std::to_string(kAbiVersion) + ")";
      }
      return nullptr;
    }
    if (sb.config_hash.load(std::memory_order_relaxed) != config_hash) {  // AML_RELAXED(read after ipc.arena_seal acquire)
      if (error != nullptr) {
        *error = "segment " + name + ": config hash mismatch (attach with " +
                 "the creator's configuration)";
      }
      return nullptr;
    }
    if (sb.total_bytes.load(std::memory_order_relaxed) != bytes) {  // AML_RELAXED(read after ipc.arena_seal acquire)
      if (error != nullptr) {
        *error = "segment " + name + ": size drifted from the superblock";
      }
      return nullptr;
    }
    return arena;
  }

  /// A process-private arena over an anonymous mapping with `bytes` of data
  /// area: zero-filled like a fresh segment, but never named, sealed or
  /// attached. It lets a structure with a segment layout live on the heap
  /// through its one allocation sequence. Throws std::bad_alloc when the
  /// mapping fails, like operator new.
  static std::unique_ptr<ShmArena> anonymous(std::uint64_t bytes) {
    bytes += kDataBegin;
    void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    return std::unique_ptr<ShmArena>(
        new ShmArena(std::string(), base, bytes, Role::kCreator));
  }

  ~ShmArena() {
    if (base_ != nullptr) ::munmap(base_, bytes_);
  }

  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;

  /// Remove the name from the shm namespace (existing mappings survive).
  static void unlink(const std::string& name) {
    ::shm_unlink(name.c_str());
  }

  // --- bump allocation (deterministic replay) ----------------------------

  /// Allocate `bytes` aligned to `align`. The creator gets zero-filled
  /// memory (fresh shm pages); the attacher gets the creator's live object.
  /// Both roles must issue the identical sequence of alloc calls.
  std::uint64_t alloc_offset(std::uint64_t bytes, std::uint64_t align) {
    AML_ASSERT(align != 0 && (align & (align - 1)) == 0,
               "arena alignment must be a power of two");
    const std::uint64_t off = (cursor_ + align - 1) & ~(align - 1);
    AML_ASSERT(off + bytes <= bytes_, "shm arena exhausted: size the "
               "segment for the configured N and stripes");
    cursor_ = off + bytes;
    return off;
  }

  /// Typed array allocation. T must be shm-placeable; the memory is
  /// zero-filled for the creator, live for the attacher — callers that need
  /// non-zero initial values store them explicitly (creator role only).
  template <typename T>
  T* alloc_array(std::uint64_t count) {
    static_assert(std::is_standard_layout_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "only shm-placeable types may live in the arena");
    const std::uint64_t off =
        alloc_offset(count * sizeof(T), alignof(T));
    return reinterpret_cast<T*>(static_cast<std::byte*>(base_) + off);
  }

  /// Seal after construction (creator only): record the final cursor and
  /// publish ready. Release ordering makes every prior initializing store
  /// visible to attachers that observe ready == 1.
  void seal() {
    AML_ASSERT(role_ == Role::kCreator, "only the creator seals");
    superblock().final_cursor.store(cursor_, std::memory_order_relaxed);  // AML_RELAXED(published by the seal release below)
    superblock().ready.store(1, std::memory_order_release);  // AML_V_EDGE(ipc.arena_seal)
  }

  /// Verify the replayed construction landed exactly where the creator's
  /// did (attacher only). A mismatch means the two processes laid out
  /// different objects — config or code drift — and touching the segment
  /// would corrupt live state.
  bool verify_replay(std::string* error) const {
    const std::uint64_t sealed =
        superblock().final_cursor.load(std::memory_order_relaxed);  // AML_RELAXED(read after ipc.arena_seal acquire)
    if (cursor_ != sealed) {
      if (error != nullptr) {
        *error = "arena replay mismatch: local cursor " +
                 std::to_string(cursor_) + " vs sealed " +
                 std::to_string(sealed) + " — construction sequences differ";
      }
      return false;
    }
    return true;
  }

  // --- resolution --------------------------------------------------------

  void* base() const { return base_; }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t cursor() const { return cursor_; }
  Role role() const { return role_; }
  bool creating() const { return role_ == Role::kCreator; }
  const std::string& name() const { return name_; }

  Superblock& superblock() const {
    return *reinterpret_cast<Superblock*>(base_);
  }

  template <typename T>
  T* at(std::uint64_t off) const {
    return reinterpret_cast<T*>(static_cast<std::byte*>(base_) + off);
  }

  template <typename T>
  std::uint64_t to_offset(const T* p) const {
    return static_cast<std::uint64_t>(reinterpret_cast<const std::byte*>(p) -
                                      static_cast<const std::byte*>(base_));
  }

 private:
  ShmArena(std::string name, void* base, std::uint64_t bytes, Role role)
      : name_(std::move(name)), base_(base), bytes_(bytes), role_(role) {
    // Reserve the superblock (both roles, so cursors agree) and start the
    // data area on a fresh cache line.
    cursor_ = kDataBegin;
  }

  static std::uint64_t minimum_bytes() {
    return sizeof(Superblock);
  }

  static void set_error(std::string* error, const std::string& what) {
    if (error != nullptr) {
      *error = what + " failed: " + std::strerror(errno);
    }
  }

  std::string name_;
  void* base_ = nullptr;
  std::uint64_t bytes_ = 0;
  std::uint64_t cursor_ = 0;
  Role role_;
};

}  // namespace aml::ipc
