#include "protocol/gsi.h"

namespace nest::protocol {
namespace {

// FNV-1a over secret || ':' || challenge, hex-encoded. A stand-in keyed
// hash for the simulated handshake only.
std::string keyed_hash(const std::string& secret,
                       const std::string& challenge) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  };
  mix(secret);
  h ^= ':';
  h *= 0x100000001b3ull;
  mix(challenge);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

void GsiRegistry::add_user(const std::string& name, const std::string& secret,
                           std::vector<std::string> groups) {
  users_[name] = Entry{secret, std::move(groups)};
}

bool GsiRegistry::has_user(const std::string& name) const {
  return users_.count(name) != 0;
}

std::string GsiRegistry::respond(const std::string& secret,
                                 const std::string& challenge) {
  return keyed_hash(secret, challenge);
}

std::string GsiRegistry::make_challenge() {
  const std::uint64_t n =
      nonce_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  return "nonce-" + std::to_string(n);
}

Result<storage::Principal> GsiRegistry::verify(
    const std::string& name, const std::string& challenge,
    const std::string& response, const std::string& protocol) const {
  const auto it = users_.find(name);
  if (it == users_.end())
    return Error{Errc::not_authenticated, "unknown subject " + name};
  if (keyed_hash(it->second.secret, challenge) != response)
    return Error{Errc::not_authenticated, "bad response for " + name};
  storage::Principal p;
  p.name = name;
  p.groups = it->second.groups;
  p.authenticated = true;
  p.protocol = protocol;
  return p;
}

}  // namespace nest::protocol
