#include "trie/mpt.hpp"

#include "common/errors.hpp"
#include "crypto/keccak.hpp"
#include "trie/rlp.hpp"

namespace hardtape::trie {

namespace {

using Nibbles = std::vector<uint8_t>;

// Hex-prefix encoding (Yellow Paper appendix C).
Bytes hp_encode(const Nibbles& nibbles, bool is_leaf) {
  Bytes out;
  const bool odd = nibbles.size() % 2 != 0;
  uint8_t flag = static_cast<uint8_t>((is_leaf ? 2 : 0) + (odd ? 1 : 0));
  size_t i = 0;
  if (odd) {
    out.push_back(static_cast<uint8_t>((flag << 4) | nibbles[0]));
    i = 1;
  } else {
    out.push_back(static_cast<uint8_t>(flag << 4));
  }
  for (; i + 1 < nibbles.size(); i += 2) {
    out.push_back(static_cast<uint8_t>((nibbles[i] << 4) | nibbles[i + 1]));
  }
  return out;
}

std::pair<Nibbles, bool> hp_decode(BytesView encoded) {
  if (encoded.empty()) throw DecodingError("hp: empty");
  const uint8_t flag = encoded[0] >> 4;
  if (flag > 3) throw DecodingError("hp: bad flag");
  const bool is_leaf = flag >= 2;
  Nibbles nibbles;
  if (flag & 1) nibbles.push_back(encoded[0] & 0xf);
  for (size_t i = 1; i < encoded.size(); ++i) {
    nibbles.push_back(encoded[i] >> 4);
    nibbles.push_back(encoded[i] & 0xf);
  }
  return {std::move(nibbles), is_leaf};
}

size_t common_prefix(const Nibbles& a, size_t a_off, const Nibbles& b, size_t b_off) {
  size_t n = 0;
  while (a_off + n < a.size() && b_off + n < b.size() && a[a_off + n] == b[b_off + n]) ++n;
  return n;
}

Nibbles tail(const Nibbles& n, size_t from) {
  return Nibbles(n.begin() + static_cast<long>(from), n.end());
}

// Decoded node view.
struct Node {
  enum class Kind { kLeaf, kExtension, kBranch } kind;
  Nibbles path;                       // leaf/extension
  Bytes value;                        // leaf value or branch value
  H256 child{};                       // extension child
  std::array<H256, 16> children{};    // branch children (zero = empty)
};

Node decode_node(const Bytes& encoded) {
  const RlpItem item = rlp_decode(encoded);
  if (!item.is_list()) throw DecodingError("mpt: node is not a list");
  const RlpList& list = item.list();
  Node node;
  if (list.size() == 2) {
    auto [path, is_leaf] = hp_decode(list[0].bytes());
    node.path = std::move(path);
    if (is_leaf) {
      node.kind = Node::Kind::kLeaf;
      node.value = list[1].bytes();
    } else {
      node.kind = Node::Kind::kExtension;
      node.child = H256::from(list[1].bytes());
    }
    return node;
  }
  if (list.size() == 17) {
    node.kind = Node::Kind::kBranch;
    for (size_t i = 0; i < 16; ++i) {
      const Bytes& slot = list[i].bytes();
      if (!slot.empty()) node.children[i] = H256::from(slot);
    }
    node.value = list[16].bytes();
    return node;
  }
  throw DecodingError("mpt: bad node arity");
}

Bytes encode_leaf(const Nibbles& path, BytesView value) {
  return rlp_encode_list({rlp_encode_bytes(hp_encode(path, true)), rlp_encode_bytes(value)});
}

Bytes encode_extension(const Nibbles& path, const H256& child) {
  return rlp_encode_list(
      {rlp_encode_bytes(hp_encode(path, false)), rlp_encode_bytes(child.view())});
}

Bytes encode_branch(const std::array<H256, 16>& children, BytesView value) {
  std::vector<Bytes> parts;
  parts.reserve(17);
  for (const H256& child : children) {
    parts.push_back(child.is_zero() ? rlp_encode_bytes(BytesView{})
                                    : rlp_encode_bytes(child.view()));
  }
  parts.push_back(rlp_encode_bytes(value));
  return rlp_encode_list(parts);
}

}  // namespace

MerklePatriciaTrie::Nibbles MerklePatriciaTrie::to_nibbles(BytesView key) {
  Nibbles out;
  out.reserve(key.size() * 2);
  for (uint8_t b : key) {
    out.push_back(b >> 4);
    out.push_back(b & 0xf);
  }
  return out;
}

H256 MerklePatriciaTrie::store_node(const Bytes& encoded) {
  const H256 hash = crypto::keccak256(encoded);
  store_->put(hash, encoded);
  return hash;
}

Bytes MerklePatriciaTrie::load_node(const H256& hash) const {
  auto encoded = store_->get(hash);
  if (!encoded.has_value()) throw HardtapeError("mpt: missing node " + hash.hex());
  return std::move(*encoded);
}

H256 MerklePatriciaTrie::empty_root_hash() {
  static const H256 kRoot = crypto::keccak256(rlp_encode_bytes(BytesView{}));
  return kRoot;
}

H256 MerklePatriciaTrie::root_hash() const {
  return root_.is_zero() ? empty_root_hash() : root_;
}

void MerklePatriciaTrie::put(BytesView key, BytesView value) {
  if (value.empty()) throw UsageError("mpt: empty value; use erase");
  const Nibbles path = to_nibbles(key);
  const bool existed = get(key).has_value();
  root_ = insert(root_, path, 0, value);
  if (!existed) ++size_;
}

H256 MerklePatriciaTrie::insert(const H256& node_hash, const Nibbles& path,
                                size_t depth, BytesView value) {
  const size_t remaining = path.size() - depth;
  if (node_hash.is_zero()) {
    return store_node(encode_leaf(tail(path, depth), value));
  }
  Node node = decode_node(load_node(node_hash));

  switch (node.kind) {
    case Node::Kind::kLeaf: {
      const size_t cp = common_prefix(node.path, 0, path, depth);
      if (cp == node.path.size() && cp == remaining) {
        return store_node(encode_leaf(node.path, value));  // overwrite
      }
      // Split into a branch (plus extension for the shared prefix).
      std::array<H256, 16> children{};
      Bytes branch_value;
      if (cp == node.path.size()) {
        branch_value = node.value;
      } else {
        children[node.path[cp]] = store_node(encode_leaf(tail(node.path, cp + 1), node.value));
      }
      if (cp == remaining) {
        branch_value.assign(value.begin(), value.end());
      } else {
        children[path[depth + cp]] =
            store_node(encode_leaf(tail(path, depth + cp + 1), value));
      }
      H256 branch = store_node(encode_branch(children, branch_value));
      if (cp > 0) {
        branch = store_node(encode_extension(Nibbles(node.path.begin(),
                                                     node.path.begin() + static_cast<long>(cp)),
                                             branch));
      }
      return branch;
    }
    case Node::Kind::kExtension: {
      const size_t cp = common_prefix(node.path, 0, path, depth);
      if (cp == node.path.size()) {
        const H256 new_child = insert(node.child, path, depth + cp, value);
        return store_node(encode_extension(node.path, new_child));
      }
      // Split the extension at the divergence point.
      std::array<H256, 16> children{};
      Bytes branch_value;
      const Nibbles ext_tail = tail(node.path, cp + 1);
      children[node.path[cp]] =
          ext_tail.empty() ? node.child : store_node(encode_extension(ext_tail, node.child));
      if (cp == remaining) {
        branch_value.assign(value.begin(), value.end());
      } else {
        children[path[depth + cp]] =
            store_node(encode_leaf(tail(path, depth + cp + 1), value));
      }
      H256 branch = store_node(encode_branch(children, branch_value));
      if (cp > 0) {
        branch = store_node(encode_extension(
            Nibbles(node.path.begin(), node.path.begin() + static_cast<long>(cp)), branch));
      }
      return branch;
    }
    case Node::Kind::kBranch: {
      if (remaining == 0) {
        Bytes v(value.begin(), value.end());
        return store_node(encode_branch(node.children, v));
      }
      const uint8_t nib = path[depth];
      node.children[nib] = insert(node.children[nib], path, depth + 1, value);
      return store_node(encode_branch(node.children, node.value));
    }
  }
  throw HardtapeError("mpt: unreachable");
}

std::optional<Bytes> MerklePatriciaTrie::get(BytesView key) const {
  if (root_.is_zero()) return std::nullopt;
  return lookup(root_, to_nibbles(key), 0);
}

std::optional<Bytes> MerklePatriciaTrie::lookup(const H256& node_hash,
                                                const Nibbles& path, size_t depth) const {
  if (node_hash.is_zero()) return std::nullopt;
  const Node node = decode_node(load_node(node_hash));
  switch (node.kind) {
    case Node::Kind::kLeaf: {
      if (path.size() - depth != node.path.size()) return std::nullopt;
      if (!std::equal(node.path.begin(), node.path.end(), path.begin() + static_cast<long>(depth))) {
        return std::nullopt;
      }
      return node.value;
    }
    case Node::Kind::kExtension: {
      if (path.size() - depth < node.path.size()) return std::nullopt;
      if (!std::equal(node.path.begin(), node.path.end(), path.begin() + static_cast<long>(depth))) {
        return std::nullopt;
      }
      return lookup(node.child, path, depth + node.path.size());
    }
    case Node::Kind::kBranch: {
      if (depth == path.size()) {
        if (node.value.empty()) return std::nullopt;
        return node.value;
      }
      return lookup(node.children[path[depth]], path, depth + 1);
    }
  }
  return std::nullopt;
}

bool MerklePatriciaTrie::erase(BytesView key) {
  if (root_.is_zero()) return false;
  bool removed = false;
  root_ = remove(root_, to_nibbles(key), 0, removed);
  if (removed) --size_;
  return removed;
}

H256 MerklePatriciaTrie::remove(const H256& node_hash, const Nibbles& path,
                                size_t depth, bool& removed) {
  if (node_hash.is_zero()) {
    removed = false;
    return node_hash;
  }
  Node node = decode_node(load_node(node_hash));
  switch (node.kind) {
    case Node::Kind::kLeaf: {
      const bool match =
          path.size() - depth == node.path.size() &&
          std::equal(node.path.begin(), node.path.end(), path.begin() + static_cast<long>(depth));
      removed = match;
      return match ? H256{} : node_hash;
    }
    case Node::Kind::kExtension: {
      if (path.size() - depth < node.path.size() ||
          !std::equal(node.path.begin(), node.path.end(), path.begin() + static_cast<long>(depth))) {
        removed = false;
        return node_hash;
      }
      const H256 new_child = remove(node.child, path, depth + node.path.size(), removed);
      if (!removed) return node_hash;
      if (new_child.is_zero()) return H256{};
      // Merge with the child if it collapsed into a leaf/extension.
      const Node child = decode_node(load_node(new_child));
      if (child.kind == Node::Kind::kBranch) {
        return store_node(encode_extension(node.path, new_child));
      }
      Nibbles merged = node.path;
      merged.insert(merged.end(), child.path.begin(), child.path.end());
      if (child.kind == Node::Kind::kLeaf) return store_node(encode_leaf(merged, child.value));
      return store_node(encode_extension(merged, child.child));
    }
    case Node::Kind::kBranch: {
      if (depth == path.size()) {
        if (node.value.empty()) {
          removed = false;
          return node_hash;
        }
        node.value.clear();
        removed = true;
      } else {
        const uint8_t nib = path[depth];
        node.children[nib] = remove(node.children[nib], path, depth + 1, removed);
        if (!removed) return node_hash;
      }
      // Normalize a possibly degenerate branch.
      int child_count = 0;
      int last_child = -1;
      for (int i = 0; i < 16; ++i) {
        if (!node.children[static_cast<size_t>(i)].is_zero()) {
          ++child_count;
          last_child = i;
        }
      }
      if (child_count == 0) {
        if (node.value.empty()) return H256{};
        return store_node(encode_leaf({}, node.value));
      }
      if (child_count == 1 && node.value.empty()) {
        const auto nib = static_cast<uint8_t>(last_child);
        const H256 only = node.children[static_cast<size_t>(last_child)];
        const Node child = decode_node(load_node(only));
        if (child.kind == Node::Kind::kBranch) {
          return store_node(encode_extension({nib}, only));
        }
        Nibbles merged{nib};
        merged.insert(merged.end(), child.path.begin(), child.path.end());
        if (child.kind == Node::Kind::kLeaf) return store_node(encode_leaf(merged, child.value));
        return store_node(encode_extension(merged, child.child));
      }
      return store_node(encode_branch(node.children, node.value));
    }
  }
  throw HardtapeError("mpt: unreachable");
}

MerkleProof MerklePatriciaTrie::prove(BytesView key) const {
  MerkleProof proof;
  if (root_.is_zero()) return proof;
  const Nibbles path = to_nibbles(key);
  H256 current = root_;
  size_t depth = 0;
  while (!current.is_zero()) {
    const Bytes& encoded = load_node(current);
    proof.push_back(encoded);
    const Node node = decode_node(encoded);
    switch (node.kind) {
      case Node::Kind::kLeaf:
        return proof;
      case Node::Kind::kExtension: {
        if (path.size() - depth < node.path.size() ||
            !std::equal(node.path.begin(), node.path.end(),
                        path.begin() + static_cast<long>(depth))) {
          return proof;  // divergence: proof of absence ends here
        }
        depth += node.path.size();
        current = node.child;
        break;
      }
      case Node::Kind::kBranch: {
        if (depth == path.size()) return proof;
        current = node.children[path[depth]];
        ++depth;
        break;
      }
    }
  }
  return proof;
}

MerklePatriciaTrie::VerifyResult MerklePatriciaTrie::verify_proof(
    const H256& root, BytesView key, const MerkleProof& proof) {
  if (proof.empty()) {
    // Only valid as an absence proof for the empty trie.
    return {root == empty_root_hash(), std::nullopt};
  }
  const Nibbles path = to_nibbles(key);
  H256 expected = root;
  size_t depth = 0;
  for (size_t i = 0; i < proof.size(); ++i) {
    if (crypto::keccak256(proof[i]) != expected) return {false, std::nullopt};
    Node node;
    try {
      node = decode_node(proof[i]);
    } catch (const DecodingError&) {
      return {false, std::nullopt};
    }
    const bool is_last = (i + 1 == proof.size());
    switch (node.kind) {
      case Node::Kind::kLeaf: {
        if (!is_last) return {false, std::nullopt};
        const bool match =
            path.size() - depth == node.path.size() &&
            std::equal(node.path.begin(), node.path.end(),
                       path.begin() + static_cast<long>(depth));
        if (match) return {true, node.value};
        return {true, std::nullopt};  // valid absence proof
      }
      case Node::Kind::kExtension: {
        if (path.size() - depth < node.path.size() ||
            !std::equal(node.path.begin(), node.path.end(),
                        path.begin() + static_cast<long>(depth))) {
          return {is_last, std::nullopt};  // divergence must end the proof
        }
        depth += node.path.size();
        expected = node.child;
        break;
      }
      case Node::Kind::kBranch: {
        if (depth == path.size()) {
          if (!is_last) return {false, std::nullopt};
          if (node.value.empty()) return {true, std::nullopt};
          return {true, node.value};
        }
        const H256 child = node.children[path[depth]];
        ++depth;
        if (child.is_zero()) return {is_last, std::nullopt};  // absence
        expected = child;
        break;
      }
    }
  }
  return {false, std::nullopt};  // path did not terminate within the proof
}

}  // namespace hardtape::trie
