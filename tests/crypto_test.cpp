// Known-answer and property tests for the crypto substrate.
#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "common/random.hpp"
#include "crypto/chacha20_poly1305.hpp"
#include "crypto/keccak.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"

namespace hardtape::crypto {
namespace {

TEST(Keccak, KnownVectors) {
  // Ethereum-style Keccak-256 (original padding), not SHA3-256.
  EXPECT_EQ(keccak256("").hex(),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
  EXPECT_EQ(keccak256("abc").hex(),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
  EXPECT_EQ(keccak256("The quick brown fox jumps over the lazy dog").hex(),
            "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15");
}

TEST(Keccak, MultiBlockInput) {
  // > 136-byte input exercises the multi-block absorb path.
  const std::string long_input(500, 'a');
  const H256 h1 = keccak256(long_input);
  const H256 h2 = keccak256(long_input);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, keccak256(std::string(501, 'a')));
  // Boundary: exactly one rate block.
  EXPECT_NE(keccak256(std::string(136, 'x')), keccak256(std::string(135, 'x')));
}

// Known answers across every rate-block boundary the sponge has: empty,
// one byte, one block minus one, exactly one block, one past it, the same
// around two blocks, and 4,392 bytes — one paged ORAM bucket's checksum
// preimage (32-byte id, 8-byte generation, 4 sealed 1,088-byte slots).
// Input byte i is (7i + 3) mod 256. Generated offline by this Python sponge
// over a readable Keccak-f[1600], which first reproduces hashlib.sha3_256 at
// every length with the FIPS 202 suffix 0x06, then switches to Keccak's 0x01:
//
//   import hashlib
//   M = 2**64 - 1
//   rot = lambda v, n: ((v << n) | (v >> (64 - n))) & M
//   def round_constants():
//       out, r = [], 1
//       for _ in range(24):
//           c = 0
//           for j in range(7):
//               r = ((r << 1) ^ ((r >> 7) * 0x71)) % 256
//               if r & 2: c |= 1 << ((1 << j) - 1)
//           out.append(c)
//       return out
//   def keccak_f(a):  # a[x][y]
//       for rc in round_constants():
//           c = [a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4] for x in range(5)]
//           d = [c[(x - 1) % 5] ^ rot(c[(x + 1) % 5], 1) for x in range(5)]
//           a = [[a[x][y] ^ d[x] for y in range(5)] for x in range(5)]
//           x, y, cur = 1, 0, a[1][0]
//           for t in range(24):
//               x, y = y, (2 * x + 3 * y) % 5
//               cur, a[x][y] = a[x][y], rot(cur, ((t + 1) * (t + 2) // 2) % 64)
//           a = [[a[x][y] ^ (~a[(x + 1) % 5][y] & a[(x + 2) % 5][y]) for y in range(5)]
//                for x in range(5)]
//           a[0][0] ^= rc
//       return a
//   def sponge(msg, suffix, rate=136):
//       p = bytearray(msg) + bytes([suffix]) + bytes((-len(msg) - 1) % rate)
//       p[-1] |= 0x80
//       a = [[0] * 5 for _ in range(5)]
//       for off in range(0, len(p), rate):
//           for i in range(rate // 8):
//               a[i % 5][i // 5] ^= int.from_bytes(p[off + 8 * i:off + 8 * i + 8], 'little')
//           a = keccak_f(a)
//       return b''.join(a[i % 5][i // 5].to_bytes(8, 'little') for i in range(4)).hex()
//   for n in [0, 1, 135, 136, 137, 271, 272, 273, 4392]:
//       msg = bytes((7 * i + 3) % 256 for i in range(n))
//       assert sponge(msg, 0x06) == hashlib.sha3_256(msg).hexdigest()
//       print(n, sponge(msg, 0x01))
TEST(Keccak, KnownVectorsPastOneRateBlock) {
  const std::pair<size_t, const char*> vectors[] = {
      {0, "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
      {1, "69c322e3248a5dfc29d73c5b0553b0185a35cd5bb6386747517ef7e53b15e287"},
      {135, "00ef96af9cf4b24c7f269d922294444a197d0a33638c2e56634c57e892103a8f"},
      {136, "742061bcad767ed4c4f5883b1dcb1aad11afdcc140dc469d953759b127b9f9ed"},
      {137, "e3371f61e770abf254c34239c3b0099ad90594507415bc81dd0a10b9692bbf2a"},
      {271, "4401c4afbe16ff911bdbf2d38e556e5b861f3fdf0f9d4306b1c46f6ae4f73584"},
      {272, "ac141fd7b0a0ffcd2e967254d508da3ec616596493c36fa304425647d90e6de5"},
      {273, "16192ea86793083e47731cb3c970600f04768414d92bc0540e54ce8607a0fce0"},
      {4392, "026a43b602b5ffc8d7eac74cdaf86aeb40b43ae811c17bd1d52e412ff46af5e1"},
  };
  for (const auto& [length, digest] : vectors) {
    Bytes input(length);
    for (size_t i = 0; i < length; ++i) input[i] = static_cast<uint8_t>(7 * i + 3);
    EXPECT_EQ(keccak256(input).hex(), digest) << length << " bytes";
  }
}

TEST(Sha256, KnownVectors) {
  EXPECT_EQ(sha256(Bytes{}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const Bytes abc = {'a', 'b', 'c'};
  EXPECT_EQ(sha256(abc).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // 56-byte input exercises the two-block padding path.
  const std::string s56(56, 'a');
  const Bytes b56(s56.begin(), s56.end());
  EXPECT_EQ(sha256(b56).hex(),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Sha256, HmacRfc4231Case1) {
  const Bytes key(20, 0x0b);
  const std::string data = "Hi There";
  const Bytes msg(data.begin(), data.end());
  EXPECT_EQ(hmac_sha256(key, msg).hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Sha256, HmacRfc4231Case2) {
  const std::string k = "Jefe";
  const std::string d = "what do ya want for nothing?";
  EXPECT_EQ(hmac_sha256(Bytes(k.begin(), k.end()), Bytes(d.begin(), d.end())).hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Sha256, HkdfProducesRequestedLength) {
  const Bytes ikm(22, 0x0b);
  const Bytes out = hkdf_sha256(ikm, Bytes{}, Bytes{}, 42);
  EXPECT_EQ(out.size(), 42u);
  // Deterministic.
  EXPECT_EQ(out, hkdf_sha256(ikm, Bytes{}, Bytes{}, 42));
  // Different info separates keys.
  const Bytes info = {'x'};
  EXPECT_NE(out, hkdf_sha256(ikm, Bytes{}, info, 42));
}

// --- ChaCha20-Poly1305 (RFC 8439) ---

template <size_t N>
std::array<uint8_t, N> array_from_hex(const char* hex) {
  const Bytes bytes = from_hex(hex);
  std::array<uint8_t, N> out{};
  EXPECT_EQ(bytes.size(), N);
  std::copy_n(bytes.begin(), std::min(N, bytes.size()), out.begin());
  return out;
}

TEST(Poly1305, Rfc8439Section252) {
  const auto key = array_from_hex<32>(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const std::string message = "Cryptographic Forum Research Group";
  const Poly1305Tag tag = poly1305(
      key, BytesView{reinterpret_cast<const uint8_t*>(message.data()), message.size()});
  EXPECT_EQ(to_hex(tag), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(ChaCha20, Rfc8439Section242Encryption) {
  // 114 bytes from counter 1: the 64-byte boundary falls inside the first
  // 4-block keystream call.
  ChaChaKey key;
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i);
  const auto nonce = array_from_hex<12>("000000000000004a00000000");
  const std::string sunscreen =
      "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for "
      "the future, sunscreen would be it.";
  Bytes data(sunscreen.begin(), sunscreen.end());
  ASSERT_EQ(data.size(), 114u);
  chacha20_xor(key, 1, nonce, data);
  EXPECT_EQ(to_hex(data),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

// Empty-AAD seals in the ORAM seal's key layout (a 16-byte key, then 16 zero
// bytes), generated offline with the Python `cryptography` package (48.0):
//
//   from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
//   key = bytes(range(1, 17)) + bytes(16)
//   nonce = bytes.fromhex("0a0b0c0d0e0f101112131415")
//   for n in [0, 1, 15, 16, 63, 64, 65, 191, 192, 193, 256, 1056]:
//       pt = bytes((7 * i + 3) & 0xff for i in range(n))
//       out = ChaCha20Poly1305(key).encrypt(nonce, pt, None)
//       ct, tag = out[:-16], out[-16:]
//       print(n, tag.hex(), hashlib.sha256(ct).hexdigest())
//
// The first keystream call covers blocks 0-3: block 0 is the MAC key, so
// the 192- and 193-byte cases end on and just past that call; 1,056 bytes is
// one ORAM slot (32-byte id + 1 KB page).
struct AeadVector {
  size_t length;
  const char* tag;
  const char* ciphertext_sha256;
};

constexpr AeadVector kAeadVectors[] = {
    {0, "c6147a6cdc6f131c3383947f918dbb5e",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {1, "a705cd4ea15bc099ddc4f896ae2e3124",
     "8a8950f7623663222542c9469c73be3c4c81bbdf019e2c577590a61f2ce9a157"},
    {15, "03fd2a1048a39c73b8655cab43489a88",
     "9cc053b2821de8787ffed89947d77eb24cf4f130995d28c4f06d5e7c44d2cc04"},
    {16, "a014f9a8552e37f0e85e980f8e76b25b",
     "34e3f7501ffb50c23e960aac64a982fc8b1fccc5fb5379238f6c1cb537ddb7c0"},
    {63, "b336a9b182dda2d937a6aaae84d5f7ac",
     "fa55e784c8e4ca760db738d3beed2ddae5c77c925f6382fdd4c25bfe18415e5d"},
    {64, "90c00879655a7810af403a55738564e0",
     "93fbc96d7b048340d4be9c09f57bc789602c3b7f5f2470b3882532e7018aac8b"},
    {65, "48cc7b226281e1f76216b9fde953b48b",
     "35b6464bdf95c89d4e1a7691489fd0bb2efbe07345f0008dcfb661396ff2a954"},
    {191, "c6356e878096a5bd9ef242aa25929e46",
     "b11c6ae2c23d4219d949d803db5601939f22db307caa4b197db1439a4cbd41a5"},
    {192, "7b3f3ef811775f5d262d351e5da8177b",
     "6ba778c976c8a2384429820db6332225f69170b3b055f0f0767b9983dce99e2a"},
    {193, "1641dea741dec9165ecad1b7e7de3070",
     "84a17a3166f36dbd2029b36e13c6d29cd38a46c25bacaf021f9d80ce7cacab04"},
    {256, "604c0411641b41e21a1033ec6b01ecd9",
     "5abe82c8bfcf41b2ad2381bc351d34c8865bd34a64e771046e69038922a6a3c3"},
    {1056, "8261d97771801d58a314d19d1aacbc24",
     "633efa076e06421a74ed4420c7e4b1fac61a2bbc33c9c6861c44749c4b5566cb"},
};

TEST(ChaCha20Poly1305, EmptyAadVectorsAcrossKeystreamCalls) {
  ChaChaKey key{};
  for (size_t i = 0; i < 16; ++i) key[i] = static_cast<uint8_t>(i + 1);
  const auto nonce = array_from_hex<12>("0a0b0c0d0e0f101112131415");
  for (const AeadVector& v : kAeadVectors) {
    Bytes plaintext(v.length);
    for (size_t i = 0; i < v.length; ++i) plaintext[i] = static_cast<uint8_t>(7 * i + 3);
    Bytes data = plaintext;
    const Poly1305Tag tag = chacha20_poly1305_seal(key, nonce, {}, data);
    EXPECT_EQ(to_hex(tag), v.tag) << v.length << " bytes";
    EXPECT_EQ(sha256(data).hex(), v.ciphertext_sha256) << v.length << " bytes";
    ASSERT_TRUE(chacha20_poly1305_open(key, nonce, {}, data, tag)) << v.length << " bytes";
    EXPECT_EQ(data, plaintext) << v.length << " bytes";
  }
}

// AAD-bearing seals in the same key layout, plaintext and nonce as the
// empty-AAD table; the additional data is byte i = (5i + 1) mod 256. 8 bytes
// is a layer-3 slot number and 32 bytes a channel frame header. Generated
// offline with the Python `cryptography` package (48.0):
//
//   for a, n in [(1, 0), (8, 1), (12, 64), (16, 16), (17, 193), (32, 0),
//                (32, 300), (32, 1024)]:
//       aad = bytes((5 * i + 1) & 0xff for i in range(a))
//       pt = bytes((7 * i + 3) & 0xff for i in range(n))
//       out = ChaCha20Poly1305(key).encrypt(nonce, pt, aad)
//       ct, tag = out[:-16], out[-16:]
//       print(a, n, tag.hex(), hashlib.sha256(ct).hexdigest())
//
// The ciphertext does not depend on the additional data, so each hash
// equals the empty-AAD table's at the same length.
struct AadVector {
  size_t aad_length;
  size_t length;
  const char* tag;
  const char* ciphertext_sha256;
};

constexpr AadVector kAadVectors[] = {
    {1, 0, "6968a1627051c98b4534ad0fb00b515b",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {8, 1, "f1893bf2ede8e9ffa101f1d0a8e9638d",
     "8a8950f7623663222542c9469c73be3c4c81bbdf019e2c577590a61f2ce9a157"},
    {12, 64, "177215b53e27ae052800c904548cdb65",
     "93fbc96d7b048340d4be9c09f57bc789602c3b7f5f2470b3882532e7018aac8b"},
    {16, 16, "116cc1a2c015a1f103a78e3c63fbc786",
     "34e3f7501ffb50c23e960aac64a982fc8b1fccc5fb5379238f6c1cb537ddb7c0"},
    {17, 193, "140d57a25899e1913942dff3fb88c112",
     "84a17a3166f36dbd2029b36e13c6d29cd38a46c25bacaf021f9d80ce7cacab04"},
    {32, 0, "efd43f9c995f52287e3b0e6c326fc113",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {32, 300, "c9dd9bd4999cf74d2b89383b56180aa5",
     "036684b5e6fb380b7daafb6fb0c19a89aba9bdce17c44a6186fccd62f80e0cd2"},
    {32, 1024, "59a5c5c0188036ce58d8330db5f13b79",
     "2000118b5ccd58cb40c8e95178ab3148228124ecaed70f983b102e17cf0f4550"},
};

TEST(ChaCha20Poly1305, AadVectorsInTheSealKeyLayout) {
  AesKey128 seal_key;
  for (size_t i = 0; i < seal_key.size(); ++i) seal_key[i] = static_cast<uint8_t>(i + 1);
  const ChaChaKey key = chacha_key(seal_key);
  const auto nonce = array_from_hex<12>("0a0b0c0d0e0f101112131415");
  for (const AadVector& v : kAadVectors) {
    Bytes aad(v.aad_length);
    for (size_t i = 0; i < v.aad_length; ++i) aad[i] = static_cast<uint8_t>(5 * i + 1);
    Bytes plaintext(v.length);
    for (size_t i = 0; i < v.length; ++i) plaintext[i] = static_cast<uint8_t>(7 * i + 3);
    Bytes data = plaintext;
    const Poly1305Tag tag = chacha20_poly1305_seal(key, nonce, aad, data);
    EXPECT_EQ(to_hex(tag), v.tag) << v.aad_length << "+" << v.length << " bytes";
    EXPECT_EQ(sha256(data).hex(), v.ciphertext_sha256) << v.length << " bytes";
    ASSERT_TRUE(chacha20_poly1305_open(key, nonce, aad, data, tag)) << v.length << " bytes";
    EXPECT_EQ(data, plaintext) << v.length << " bytes";
  }
}

TEST(ChaCha20Poly1305, Rfc8439Section282AeadVector) {
  ChaChaKey key;
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(0x80 + i);
  const auto nonce = array_from_hex<12>("070000004041424344454647");
  const Bytes aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  const std::string sunscreen =
      "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for "
      "the future, sunscreen would be it.";
  const Bytes plaintext(sunscreen.begin(), sunscreen.end());
  Bytes data = plaintext;
  const Poly1305Tag tag = chacha20_poly1305_seal(key, nonce, aad, data);
  EXPECT_EQ(to_hex(tag), "1ae10b594f09e26a7e902ecbd0600691");
  EXPECT_EQ(to_hex(data),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116");
  ASSERT_TRUE(chacha20_poly1305_open(key, nonce, aad, data, tag));
  EXPECT_EQ(data, plaintext);
}

// A flipped ciphertext bit, a flipped tag bit, a changed additional-data
// byte and a wrong key each fail closed, and a refused open releases no
// plaintext: the buffer is left as it was.
TEST(ChaCha20Poly1305, RejectedOpenLeavesCiphertextUntouched) {
  ChaChaKey key{};
  key[0] = 9;
  const ChaChaNonce nonce{};
  const Bytes aad = {9, 9, 9};
  Bytes data = Random(8).bytes(300);
  const Poly1305Tag tag = chacha20_poly1305_seal(key, nonce, aad, data);
  const Bytes ciphertext = data;

  data[150] ^= 0x01;
  EXPECT_FALSE(chacha20_poly1305_open(key, nonce, aad, data, tag));
  data[150] ^= 0x01;
  EXPECT_EQ(data, ciphertext);

  Poly1305Tag bad_tag = tag;
  bad_tag[3] ^= 0x10;
  EXPECT_FALSE(chacha20_poly1305_open(key, nonce, aad, data, bad_tag));
  EXPECT_EQ(data, ciphertext);

  Bytes bad_aad = aad;
  bad_aad[2] = 8;
  EXPECT_FALSE(chacha20_poly1305_open(key, nonce, bad_aad, data, tag));
  EXPECT_EQ(data, ciphertext);
  EXPECT_FALSE(chacha20_poly1305_open(key, nonce, {}, data, tag));
  EXPECT_EQ(data, ciphertext);

  ChaChaKey other_key = key;
  other_key[0] ^= 1;
  EXPECT_FALSE(chacha20_poly1305_open(other_key, nonce, aad, data, tag));
  EXPECT_EQ(data, ciphertext);

  ASSERT_TRUE(chacha20_poly1305_open(key, nonce, aad, data, tag));
}

// --- secp256k1 ---

TEST(Secp256k1, GeneratorOnCurve) {
  EXPECT_TRUE(secp256k1::is_on_curve(secp256k1::generator()));
}

TEST(Secp256k1, GroupLaws) {
  const Point g = secp256k1::generator();
  // 2G via add == 2G via double.
  EXPECT_EQ(secp256k1::add(g, g), secp256k1::dbl(g));
  // (G + 2G) == 3G.
  const Point g2 = secp256k1::dbl(g);
  const Point g3a = secp256k1::add(g, g2);
  const Point g3b = secp256k1::mul(g, u256{3});
  EXPECT_EQ(g3a, g3b);
  EXPECT_TRUE(secp256k1::is_on_curve(g3a));
  // n*G = infinity.
  EXPECT_TRUE(secp256k1::mul(g, secp256k1::group_order()).is_infinity);
  // (n-1)*G + G = infinity.
  const Point gn1 = secp256k1::mul(g, secp256k1::group_order() - u256{1});
  EXPECT_TRUE(secp256k1::add(gn1, g).is_infinity);
  // P + infinity = P.
  EXPECT_EQ(secp256k1::add(g, Point{.is_infinity = true}), g);
}

TEST(Secp256k1, ScalarMulDistributes) {
  const Point g = secp256k1::generator();
  // (a+b)G == aG + bG
  const u256 a{123456789};
  const u256 b = u256::from_string("0xfedcba9876543210");
  EXPECT_EQ(secp256k1::mul(g, a + b),
            secp256k1::add(secp256k1::mul(g, a), secp256k1::mul(g, b)));
}

TEST(Secp256k1, EthereumAddressOfKeyOne) {
  // Well-known: the address of private key 1.
  const PrivateKey key(u256{1});
  EXPECT_EQ(pubkey_to_address(key.public_key()).hex(),
            "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf");
  // And of private key 2.
  const PrivateKey key2(u256{2});
  EXPECT_EQ(pubkey_to_address(key2.public_key()).hex(),
            "0x2b5ad5c4795c026514f8317c7a215e218dccd6cf");
}

TEST(Secp256k1, KeyValidation) {
  EXPECT_THROW(PrivateKey(u256{}), UsageError);
  EXPECT_THROW(PrivateKey(secp256k1::group_order()), UsageError);
  EXPECT_NO_THROW(PrivateKey(secp256k1::group_order() - u256{1}));
}

TEST(Ecdsa, SignVerifyRoundTrip) {
  const PrivateKey key = PrivateKey::from_seed(from_hex("aabbcc"));
  const H256 msg = keccak256("hello hardtape");
  const Signature sig = key.sign(msg);
  EXPECT_TRUE(ecdsa_verify(key.public_key(), msg, sig));
  // Wrong message fails.
  EXPECT_FALSE(ecdsa_verify(key.public_key(), keccak256("other"), sig));
  // Wrong key fails.
  const PrivateKey other = PrivateKey::from_seed(from_hex("ddeeff"));
  EXPECT_FALSE(ecdsa_verify(other.public_key(), msg, sig));
  // Tampered signature fails.
  Signature bad = sig;
  bad.s += u256{1};
  EXPECT_FALSE(ecdsa_verify(key.public_key(), msg, bad));
}

TEST(Ecdsa, DeterministicSignatures) {
  const PrivateKey key(u256{42});
  const H256 msg = keccak256("determinism");
  const Signature s1 = key.sign(msg);
  const Signature s2 = key.sign(msg);
  EXPECT_EQ(s1.r, s2.r);
  EXPECT_EQ(s1.s, s2.s);
}

TEST(Ecdsa, RecoveryMatchesPublicKey) {
  Random rng(17);
  for (int i = 0; i < 5; ++i) {
    const PrivateKey key = PrivateKey::from_seed(rng.bytes(16));
    const H256 msg = keccak256(rng.bytes(40));
    const Signature sig = key.sign(msg);
    const auto recovered = ecdsa_recover(msg, sig);
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(*recovered, key.public_key());
  }
}

TEST(Ecdsa, RecoveryRejectsGarbage) {
  Signature sig;
  sig.r = u256{};  // r = 0 invalid
  sig.s = u256{1};
  EXPECT_FALSE(ecdsa_recover(keccak256("x"), sig).has_value());
  sig.r = secp256k1::group_order();  // r >= n invalid
  EXPECT_FALSE(ecdsa_recover(keccak256("x"), sig).has_value());
}

TEST(Ecdsa, SignatureSerializeRoundTrip) {
  const PrivateKey key(u256{7});
  const Signature sig = key.sign(keccak256("serialize"));
  const Bytes wire = sig.serialize();
  EXPECT_EQ(wire.size(), 65u);
  const auto back = Signature::deserialize(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->r, sig.r);
  EXPECT_EQ(back->s, sig.s);
  EXPECT_EQ(back->recovery_id, sig.recovery_id);
  EXPECT_FALSE(Signature::deserialize(Bytes(64, 0)).has_value());
}

TEST(Ecdh, SharedSecretAgreement) {
  const PrivateKey alice = PrivateKey::from_seed(from_hex("01"));
  const PrivateKey bob = PrivateKey::from_seed(from_hex("02"));
  const H256 s1 = alice.ecdh(bob.public_key());
  const H256 s2 = bob.ecdh(alice.public_key());
  EXPECT_EQ(s1, s2);
  const PrivateKey carol = PrivateKey::from_seed(from_hex("03"));
  EXPECT_NE(s1, carol.ecdh(alice.public_key()));
}

TEST(Ecdh, RejectsInvalidPeer) {
  const PrivateKey key(u256{5});
  Point bogus{u256{1}, u256{1}, false};  // not on curve
  EXPECT_THROW(key.ecdh(bogus), UsageError);
  EXPECT_THROW(key.ecdh(Point{.is_infinity = true}), UsageError);
}

TEST(Secp256k1, LiftX) {
  const Point g = secp256k1::generator();
  const auto lifted = secp256k1::lift_x(g.x, g.y.bit(0));
  ASSERT_TRUE(lifted.has_value());
  EXPECT_EQ(*lifted, g);
  // Opposite parity gives the mirrored point.
  const auto mirrored = secp256k1::lift_x(g.x, !g.y.bit(0));
  ASSERT_TRUE(mirrored.has_value());
  EXPECT_EQ(mirrored->y, secp256k1::field_prime() - g.y);
}

TEST(Secp256k1, PointSerializeRoundTrip) {
  const Point g = secp256k1::generator();
  const auto back = point_deserialize(point_serialize(g));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, g);
  // Infinity round-trips as zeros.
  const auto inf = point_deserialize(point_serialize(Point{.is_infinity = true}));
  ASSERT_TRUE(inf.has_value());
  EXPECT_TRUE(inf->is_infinity);
  // Off-curve points rejected.
  Bytes bad(64, 0);
  bad[31] = 1;  // x=1, y=0 not on curve
  EXPECT_FALSE(point_deserialize(bad).has_value());
}

}  // namespace
}  // namespace hardtape::crypto
