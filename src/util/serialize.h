// Minimal binary (de)serialization: little-endian scalars, length-prefixed
// vectors and strings, over std::ostream/std::istream. Used by the storage
// and index persistence layers (SetStore::SaveTo / SetSimilarityIndex::
// SaveTo). Deliberately simple: fixed-width integers only, explicit
// versioned headers at the call sites, no reflection.
//
// Robustness: every length prefix is validated against a sanity limit AND
// the number of bytes actually remaining in the stream (when the stream is
// seekable), so a corrupt u64 length surfaces as Corruption instead of a
// multi-GiB resize/OOM. Truncation (EOF mid-field) is DataLoss; an
// implausible length is Corruption. Both classes optionally host fault-
// injection sites (fault/fault_injector.h) so tests can exercise torn
// writes, bit flips, and transient I/O errors deterministically.

#ifndef SSR_UTIL_SERIALIZE_H_
#define SSR_UTIL_SERIALIZE_H_

#include <cstdint>
#include <istream>
#include <type_traits>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_injector.h"
#include "util/status.h"

namespace ssr {

/// Writes little-endian scalars and length-prefixed containers. When
/// `fault_site` is non-empty and the default FaultInjector is enabled,
/// every raw write consults that site: kWriteError fails the stream,
/// kTornWrite writes a prefix then fails it, kBitFlip corrupts one bit of
/// the outgoing bytes (caught later by snapshot CRCs).
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out, std::string_view fault_site = {})
      : out_(&out), fault_site_(fault_site) {}

  void WriteU8(std::uint8_t v) { WriteRaw(&v, 1); }
  void WriteU16(std::uint16_t v) { WriteRaw(&v, 2); }
  void WriteU32(std::uint32_t v) { WriteRaw(&v, 4); }
  void WriteU64(std::uint64_t v) { WriteRaw(&v, 8); }
  void WriteDouble(double v) { WriteRaw(&v, 8); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  void WriteString(const std::string& s) {
    WriteU64(s.size());
    WriteRaw(s.data(), s.size());
  }

  /// Raw bytes without a length prefix (page images, section payloads).
  void WriteBytes(const void* data, std::size_t len) { WriteRaw(data, len); }

  /// Length-prefixed raw elements. T may hold no padding (nor floating
  /// point): its bytes are written as they lie in memory, so indeterminate
  /// padding bytes would make two writes of equal values differ.
  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::has_unique_object_representations_v<T>,
                  "WriteVector needs an element type without padding");
    WriteU64(v.size());
    WriteRaw(v.data(), v.size() * sizeof(T));
  }

  /// True iff every write so far succeeded.
  bool ok() const { return out_->good(); }

 private:
  void WriteRaw(const void* data, std::size_t len) {
    if (!fault_site_.empty() && fault::FaultInjector::Default().enabled()) {
      if (WriteRawWithFaults(data, len)) return;
    }
    out_->write(static_cast<const char*>(data),
                static_cast<std::streamsize>(len));
  }

  /// Returns true when the fault fully handled the write.
  bool WriteRawWithFaults(const void* data, std::size_t len) {
    fault::FaultInjector& injector = fault::FaultInjector::Default();
    const auto kind = injector.Check(fault_site_);
    if (!kind.has_value()) return false;
    switch (*kind) {
      case fault::FaultKind::kWriteError:
        out_->setstate(std::ios::failbit);
        return true;
      case fault::FaultKind::kTornWrite:
        out_->write(static_cast<const char*>(data),
                    static_cast<std::streamsize>(len / 2));
        out_->setstate(std::ios::failbit);
        return true;
      case fault::FaultKind::kBitFlip: {
        if (len == 0) return false;
        std::vector<std::uint8_t> copy(
            static_cast<const std::uint8_t*>(data),
            static_cast<const std::uint8_t*>(data) + len);
        const std::uint64_t bit = injector.NextRandom() % (len * 8);
        copy[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        out_->write(reinterpret_cast<const char*>(copy.data()),
                    static_cast<std::streamsize>(len));
        return true;
      }
      default:
        return false;  // read-side kinds are inert on a writer
    }
  }

  std::ostream* out_;
  std::string fault_site_;
};

/// Reads what BinaryWriter wrote. Every accessor returns a Status-checked
/// value via output parameter so truncated/corrupt streams surface as
/// errors, not garbage: EOF mid-field is DataLoss, an implausible length
/// prefix is Corruption.
class BinaryReader {
 public:
  /// "Anything larger in a single field is corruption, not data."
  static constexpr std::uint64_t kDefaultSanityLimit = 1ULL << 30;  // 1 GiB
  static constexpr std::uint64_t kUnknownSize = ~0ULL;

  explicit BinaryReader(std::istream& in, std::string_view fault_site = {},
                        std::uint64_t sanity_limit = kDefaultSanityLimit)
      : in_(&in), fault_site_(fault_site), sanity_limit_(sanity_limit) {}

  Status ReadU8(std::uint8_t* v) { return ReadRaw(v, 1); }
  Status ReadU16(std::uint16_t* v) { return ReadRaw(v, 2); }
  Status ReadU32(std::uint32_t* v) { return ReadRaw(v, 4); }
  Status ReadU64(std::uint64_t* v) { return ReadRaw(v, 8); }
  Status ReadDouble(double* v) { return ReadRaw(v, 8); }
  Status ReadBool(bool* v) {
    std::uint8_t byte = 0;
    SSR_RETURN_IF_ERROR(ReadU8(&byte));
    *v = byte != 0;
    return Status::OK();
  }

  Status ReadString(std::string* s) {
    std::uint64_t size = 0;
    SSR_RETURN_IF_ERROR(ReadU64(&size));
    SSR_RETURN_IF_ERROR(CheckLength(size, "string"));
    s->resize(static_cast<std::size_t>(size));
    return ReadRaw(s->data(), s->size());
  }

  /// Reads the u64 element count of a vector whose elements take
  /// `element_bytes` (> 0) bytes each, and rejects it as Corruption when
  /// the elements would pass the sanity limit or the stream's remaining
  /// bytes. ReadVector starts with it; a caller that reads the elements
  /// field by field calls it first.
  Status ReadCount(std::uint64_t* count, std::size_t element_bytes) {
    SSR_RETURN_IF_ERROR(ReadU64(count));
    // Overflow-safe: bound the element count before multiplying.
    if (*count > sanity_limit_ / element_bytes) {
      return Status::Corruption("vector length exceeds sanity limit");
    }
    return CheckLength(*count * element_bytes, "vector");
  }

  template <typename T>
  Status ReadVector(std::vector<T>* v) {
    static_assert(std::has_unique_object_representations_v<T>,
                  "ReadVector needs an element type without padding");
    std::uint64_t size = 0;
    SSR_RETURN_IF_ERROR(ReadCount(&size, sizeof(T)));
    v->resize(static_cast<std::size_t>(size));
    return ReadRaw(v->data(), v->size() * sizeof(T));
  }

  /// Raw bytes without a length prefix (page images, section payloads).
  Status ReadBytes(void* out, std::size_t len) { return ReadRaw(out, len); }

  /// Bytes left before EOF, or kUnknownSize when the stream is not
  /// seekable. Used to reject length prefixes that promise more data than
  /// the stream can possibly hold.
  std::uint64_t RemainingBytes() {
    std::istream& in = *in_;
    if (!in.good()) return kUnknownSize;
    const std::istream::pos_type pos = in.tellg();
    if (pos == std::istream::pos_type(-1)) return kUnknownSize;
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.seekg(pos);
    if (end == std::istream::pos_type(-1) || end < pos) return kUnknownSize;
    return static_cast<std::uint64_t>(end - pos);
  }

 private:
  Status CheckLength(std::uint64_t bytes, std::string_view what) {
    if (bytes > sanity_limit_) {
      return Status::Corruption(std::string(what) +
                                " length exceeds sanity limit");
    }
    const std::uint64_t remaining = RemainingBytes();
    if (remaining != kUnknownSize && bytes > remaining) {
      return Status::Corruption(std::string(what) +
                                " length exceeds remaining stream bytes");
    }
    return Status::OK();
  }

  Status ReadRaw(void* data, std::size_t len) {
    if (!fault_site_.empty() && fault::FaultInjector::Default().enabled()) {
      Status injected;
      if (ReadRawWithFaults(data, len, &injected)) return injected;
    }
    in_->read(static_cast<char*>(data), static_cast<std::streamsize>(len));
    if (!in_->good() && len > 0) {
      return Status::DataLoss("unexpected end of stream");
    }
    return Status::OK();
  }

  /// Returns true when the fault fully handled the read; `*out_status` then
  /// carries the outcome (possibly OK for a bit flip, which corrupts but
  /// does not fail).
  bool ReadRawWithFaults(void* data, std::size_t len, Status* out_status) {
    fault::FaultInjector& injector = fault::FaultInjector::Default();
    const auto kind = injector.Check(fault_site_);
    if (!kind.has_value()) return false;
    switch (*kind) {
      case fault::FaultKind::kReadError:
        *out_status = Status::Unavailable("injected read error");
        return true;
      case fault::FaultKind::kBitFlip: {
        in_->read(static_cast<char*>(data),
                  static_cast<std::streamsize>(len));
        if (!in_->good() && len > 0) {
          *out_status = Status::DataLoss("unexpected end of stream");
          return true;
        }
        if (len > 0) {
          const std::uint64_t bit = injector.NextRandom() % (len * 8);
          static_cast<std::uint8_t*>(data)[bit / 8] ^=
              static_cast<std::uint8_t>(1u << (bit % 8));
        }
        *out_status = Status::OK();
        return true;
      }
      default:
        return false;  // write-side kinds are inert on a reader
    }
  }

  std::istream* in_;
  std::string fault_site_;
  std::uint64_t sanity_limit_;
};

}  // namespace ssr

#endif  // SSR_UTIL_SERIALIZE_H_
