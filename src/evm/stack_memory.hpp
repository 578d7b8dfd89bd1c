// The runtime stack and the byte-addressed Memory of one execution frame
// (paper Figure 2). In the hardware design, the stack lives entirely in the
// layer-1 cache (32 KB = 1024 x 32 bytes, Section IV-B); Memory is one of
// the four "memory-likes". The Interpreter owns one Stack per call depth and
// lends it to each frame at that depth; each frame owns its Memory.
#pragma once

#include <cstring>

#include "common/bytes.hpp"
#include "common/u256.hpp"

namespace hardtape::evm {

/// 1024-slot operand stack. Overflow/underflow are reported by the caller
/// (the interpreter checks against OpInfo before dispatch), so the
/// accessors here assume validity. Storage is allocated at the full
/// 1024-slot capacity up front (32 KB — exactly the layer-1 stack SRAM of
/// Section IV-B). Keep it preallocated: a stack that grows on demand
/// (push_back) ran the EVM-only perfbench workload (evm-local) at a median
/// of 979 against 1,144 bundles/s over 6 alternating 10-s pairs on a 4-vCPU
/// x86 host, and lost all 6 pairs. It is allocated and zero-filled once per
/// call depth per Interpreter; a frame starts on it with clear(), which
/// touches no slot (slots above size() are never read).
class Stack {
 public:
  static constexpr size_t kLimit = 1024;

  Stack() : items_(kLimit) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() { size_ = 0; }

  void push(const u256& v) { items_[size_++] = v; }
  u256 pop() { return items_[--size_]; }
  /// 0 = top of stack.
  const u256& peek(size_t depth = 0) const { return items_[size_ - 1 - depth]; }
  u256& peek(size_t depth = 0) { return items_[size_ - 1 - depth]; }
  void swap_top(size_t depth) { std::swap(peek(0), peek(depth)); }
  void dup(size_t depth) { push(peek(depth)); }

  /// Bottom-first snapshot (FrameDebug capture).
  std::vector<u256> items() const { return {items_.begin(), items_.begin() + size_}; }

 private:
  std::vector<u256> items_;  ///< fixed kLimit slots; size_ is the live count
  size_t size_ = 0;
};

/// Byte-addressed, zero-initialized, word-expanded frame memory. Expansion
/// gas (3 * words + words^2 / 512) is computed by the interpreter via
/// word_count(); this class only tracks contents and the high-water size.
class EvmMemory {
 public:
  /// Current size in bytes (always a multiple of 32).
  uint64_t size() const { return data_.size(); }

  /// Grows (never shrinks) to cover [offset, offset + len). No-op for len==0.
  void expand(uint64_t offset, uint64_t len) {
    if (len == 0) return;
    const uint64_t end = offset + len;
    const uint64_t words = (end + 31) / 32;
    if (words * 32 > data_.size()) data_.resize(words * 32, 0);
  }

  u256 load_word(uint64_t offset) const {
    return u256::from_be_bytes(BytesView{data_.data() + offset, 32});
  }
  void store_word(uint64_t offset, const u256& value) {
    const auto be = value.to_be_bytes();
    std::memcpy(data_.data() + offset, be.data(), 32);
  }
  void store_byte(uint64_t offset, uint8_t value) { data_[offset] = value; }

  /// Reads `len` bytes; caller must have expanded first.
  BytesView view(uint64_t offset, uint64_t len) const {
    return BytesView{data_.data() + offset, len};
  }
  /// Copies `src` into memory at `offset`, zero-filling up to `len` when the
  /// source is shorter (the semantics of CALLDATACOPY/CODECOPY).
  void store_padded(uint64_t offset, BytesView src, uint64_t src_offset, uint64_t len) {
    for (uint64_t i = 0; i < len; ++i) {
      const uint64_t s = src_offset + i;
      data_[offset + i] = s < src.size() ? src[s] : 0;
    }
  }
  void copy_within(uint64_t dst, uint64_t src, uint64_t len) {
    if (len == 0) return;
    std::memmove(data_.data() + dst, data_.data() + src, len);
  }

  /// Number of 32-byte words needed to cover [0, end_byte).
  static uint64_t word_count(uint64_t end_byte) { return (end_byte + 31) / 32; }

 private:
  Bytes data_;
};

}  // namespace hardtape::evm
