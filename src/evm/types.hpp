// Core EVM execution types: transactions, block context, results.
#pragma once

#include <functional>
#include <optional>

#include "common/bytes.hpp"
#include "common/u256.hpp"

namespace hardtape::evm {

/// Block-level environment visible to contracts (opcodes 0x40-0x48).
struct BlockContext {
  uint64_t number = 0;
  uint64_t timestamp = 0;
  uint64_t gas_limit = 30'000'000;
  Address coinbase{};
  u256 base_fee{7};
  u256 prev_randao{};
  u256 chain_id{1};
  /// Hash provider for BLOCKHASH; defaults to a synthetic hash chain.
  std::function<H256(uint64_t)> block_hash;
};

/// A transaction as submitted in a pre-execution bundle.
struct Transaction {
  Address from{};
  std::optional<Address> to{};  ///< nullopt = contract creation
  u256 value{};
  Bytes data{};
  uint64_t gas_limit = 1'000'000;
  u256 gas_price{1};
  std::optional<uint64_t> nonce{};  ///< nullopt = use the account's current

  /// Intrinsic gas: 21000 + calldata cost (+ creation cost).
  uint64_t intrinsic_gas() const;
};

enum class VmStatus : uint8_t {
  kSuccess,
  kRevert,
  kOutOfGas,
  kInvalidInstruction,
  kUndefinedInstruction,
  kStackUnderflow,
  kStackOverflow,
  kBadJumpDestination,
  kStaticModeViolation,
  kCallDepthExceeded,
  kInsufficientBalance,
  kNonceMismatch,
  kCreateCollision,
  kMemoryOverflow,  ///< HarDTAPE-specific: frame exceeded layer-2 bound (§IV-B)
};

const char* to_string(VmStatus s);
inline bool is_success(VmStatus s) { return s == VmStatus::kSuccess; }

/// Result of one message call / create.
struct CallResult {
  VmStatus status = VmStatus::kSuccess;
  Bytes output{};          ///< RETURN or REVERT payload
  uint64_t gas_left = 0;
  Address create_address{};  ///< populated for successful CREATE/CREATE2
};

/// Result of a whole transaction.
struct TxResult {
  VmStatus status = VmStatus::kSuccess;
  Bytes output{};
  uint64_t gas_used = 0;
  uint64_t gas_refunded = 0;
  Address create_address{};
};

struct LogEntry {
  Address address{};
  std::vector<u256> topics{};
  Bytes data{};
  friend bool operator==(const LogEntry&, const LogEntry&) = default;
};

}  // namespace hardtape::evm
