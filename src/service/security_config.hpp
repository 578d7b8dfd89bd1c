// Security-feature toggles matching the paper's Figure 4 configurations.
//
//   -raw : HEVM with all off-chip data protections disabled
//   -E   : + encryption of user inputs and returned traces (the paper's
//          A.E.DMA AES-GCM; the cost model charges its rate, and with
//          EngineConfig::perform_channel_crypto the channel's
//          ChaCha20-Poly1305 runs for real)
//   -ES  : + ECDSA signature/verification of inputs and traces
//   -ESO : + Path ORAM for storage (K-V world-state queries)
//   -full: + Path ORAM for contract code too (the SP's production config)
#pragma once

#include <string_view>

namespace hardtape::service {

struct SecurityConfig {
  bool encryption = false;    ///< E: AEAD on the user channel
  bool signatures = false;    ///< S: ECDSA over inputs and traces
  bool oram_storage = false;  ///< O: K-V queries through the Path ORAM
  bool oram_code = false;     ///< full: code pages through the Path ORAM too

  static SecurityConfig raw() { return {}; }
  static SecurityConfig E() { return {.encryption = true}; }
  static SecurityConfig ES() { return {.encryption = true, .signatures = true}; }
  static SecurityConfig ESO() {
    return {.encryption = true, .signatures = true, .oram_storage = true};
  }
  static SecurityConfig full() {
    return {.encryption = true, .signatures = true, .oram_storage = true,
            .oram_code = true};
  }

  std::string_view name() const {
    if (oram_code) return "-full";
    if (oram_storage) return "-ESO";
    if (signatures) return "-ES";
    if (encryption) return "-E";
    return "-raw";
  }
};

}  // namespace hardtape::service
