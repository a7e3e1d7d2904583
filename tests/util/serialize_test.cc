#include "util/serialize.h"

#include <sstream>

#include <gtest/gtest.h>

namespace ssr {
namespace {

TEST(SerializeTest, ScalarsRoundTrip) {
  std::stringstream buffer;
  BinaryWriter writer(buffer);
  writer.WriteU8(0xab);
  writer.WriteU16(0xbeef);
  writer.WriteU32(0xdeadbeef);
  writer.WriteU64(0x0123456789abcdefULL);
  writer.WriteDouble(3.14159);
  writer.WriteBool(true);
  writer.WriteBool(false);
  ASSERT_TRUE(writer.ok());

  BinaryReader reader(buffer);
  std::uint8_t u8;
  std::uint16_t u16;
  std::uint32_t u32;
  std::uint64_t u64;
  double d;
  bool b1, b2;
  ASSERT_TRUE(reader.ReadU8(&u8).ok());
  ASSERT_TRUE(reader.ReadU16(&u16).ok());
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  ASSERT_TRUE(reader.ReadDouble(&d).ok());
  ASSERT_TRUE(reader.ReadBool(&b1).ok());
  ASSERT_TRUE(reader.ReadBool(&b2).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
}

TEST(SerializeTest, StringsAndVectorsRoundTrip) {
  std::stringstream buffer;
  BinaryWriter writer(buffer);
  writer.WriteString("similar sets");
  writer.WriteString("");
  writer.WriteVector(std::vector<std::uint32_t>{1, 2, 3});
  writer.WriteVector(std::vector<std::uint16_t>{});
  ASSERT_TRUE(writer.ok());

  BinaryReader reader(buffer);
  std::string s1, s2;
  std::vector<std::uint32_t> v1;
  std::vector<std::uint16_t> v2;
  ASSERT_TRUE(reader.ReadString(&s1).ok());
  ASSERT_TRUE(reader.ReadString(&s2).ok());
  ASSERT_TRUE(reader.ReadVector(&v1).ok());
  ASSERT_TRUE(reader.ReadVector(&v2).ok());
  EXPECT_EQ(s1, "similar sets");
  EXPECT_TRUE(s2.empty());
  EXPECT_EQ(v1, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_TRUE(v2.empty());
}

TEST(SerializeTest, TruncatedStreamIsDataLoss) {
  std::stringstream buffer;
  BinaryWriter writer(buffer);
  writer.WriteU64(42);
  std::stringstream truncated(buffer.str().substr(0, 3));
  BinaryReader reader(truncated);
  std::uint64_t v;
  EXPECT_TRUE(reader.ReadU64(&v).IsDataLoss());
}

TEST(SerializeTest, AbsurdLengthRejected) {
  std::stringstream buffer;
  BinaryWriter writer(buffer);
  writer.WriteU64(~0ULL);  // insane length prefix
  BinaryReader reader(buffer);
  std::string s;
  EXPECT_TRUE(reader.ReadString(&s).IsCorruption());
}

TEST(SerializeTest, LengthBeyondRemainingBytesIsCorruption) {
  // A plausible-but-wrong length (well under the sanity limit) must still
  // be rejected against the actual bytes left in a seekable stream,
  // instead of allocating and then failing mid-read.
  std::stringstream buffer;
  BinaryWriter writer(buffer);
  writer.WriteU64(1 << 20);  // promises 1 MiB, delivers 4 bytes
  writer.WriteU32(0);
  BinaryReader reader(buffer);
  std::string s;
  EXPECT_TRUE(reader.ReadString(&s).IsCorruption());
}

TEST(SerializeTest, VectorLengthOverflowRejected) {
  // size * sizeof(T) would overflow u64; the element-count bound must
  // catch it before the multiply.
  std::stringstream buffer;
  BinaryWriter writer(buffer);
  writer.WriteU64(0x2000000000000001ULL);
  BinaryReader reader(buffer);
  std::vector<std::uint64_t> v;
  EXPECT_TRUE(reader.ReadVector(&v).IsCorruption());
}

TEST(SerializeTest, CustomSanityLimitApplies) {
  std::stringstream buffer;
  BinaryWriter writer(buffer);
  writer.WriteString(std::string(64, 'x'));
  BinaryReader reader(buffer, /*fault_site=*/{}, /*sanity_limit=*/16);
  std::string s;
  EXPECT_TRUE(reader.ReadString(&s).IsCorruption());
}

}  // namespace
}  // namespace ssr
