// Simulated Grid Security Infrastructure (GSI) authentication.
//
// The paper allows only GSI authentication (used by Chirp and GridFTP);
// other protocols get anonymous access. Real GSI is X.509 certificates
// over TLS; this simulation preserves the *protocol-visible* structure — a
// subject registry, a challenge/response handshake, and an authenticated
// Principal out the other end — without real cryptography (documented
// substitution; see DESIGN.md). The keyed hash is NOT secure and must not
// be used outside this reproduction.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/acl.h"

namespace nest::protocol {

// Subject registry: the appliance's grid-mapfile equivalent.
class GsiRegistry {
 public:
  void add_user(const std::string& name, const std::string& secret,
                std::vector<std::string> groups = {});
  bool has_user(const std::string& name) const;

  // Server side: verify a challenge response.
  NEST_NODISCARD
  Result<storage::Principal> verify(const std::string& name,
                                    const std::string& challenge,
                                    const std::string& response,
                                    const std::string& protocol) const;

  // Client/shared: compute the response for (secret, challenge).
  static std::string respond(const std::string& secret,
                             const std::string& challenge);

  // Server side: produce a fresh challenge nonce.
  std::string make_challenge();

 private:
  struct Entry {
    std::string secret;
    std::vector<std::string> groups;
  };
  std::map<std::string, Entry> users_;
  // Bumped by every connection thread that authenticates.
  std::atomic<std::uint64_t> nonce_counter_{0};
};

}  // namespace nest::protocol
