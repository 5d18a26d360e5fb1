#include "fed/wire.hpp"

#include <array>
#include <bit>

namespace netmon::fed {

namespace {

constexpr std::byte kMagic0{0xF5};
constexpr std::byte kMagic1{0xED};
constexpr std::size_t kHeaderBytes = 2 + 1 + 4;  // magic, type, payload_len
constexpr std::size_t kMaxPayload = 1u << 20;    // sanity cap, not a limit hit
constexpr std::size_t kMaxString = 4096;
constexpr std::size_t kMaxListElems = 1u << 16;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kSeriesDecl = 3,
  kPage = 4,
  kDelta = 5,
  kAck = 6,
  kGap = 7,
  kHeartbeat = 8,
};

// --- primitive writers (little-endian, LEB128 varints) ---

void put_u8(std::vector<std::byte>& out, std::uint8_t v) {
  out.push_back(static_cast<std::byte>(v));
}

void put_u16(std::vector<std::byte>& out, std::uint16_t v) {
  put_u8(out, static_cast<std::uint8_t>(v));
  put_u8(out, static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(out, static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    put_u8(out, static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  put_u8(out, static_cast<std::uint8_t>(v));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// Page timestamp deltas wrap modulo 2^64 on both ends, so any pair of
// int64 timestamps has a delta and decoding it never overflows. In-range
// deltas encode exactly as plain subtraction would.
std::int64_t wrapping_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

std::int64_t wrapping_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

void put_svarint(std::vector<std::byte>& out, std::int64_t v) {
  put_varint(out, zigzag(v));
}

void put_f64(std::vector<std::byte>& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    put_u8(out, static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

void put_string(std::vector<std::byte>& out, const std::string& s) {
  if (s.size() > kMaxString) throw WireError("fed: string too long to encode");
  put_varint(out, s.size());
  for (char c : s) out.push_back(static_cast<std::byte>(c));
}

// --- bounds-checked payload reader ---

struct Reader {
  const std::byte* p;
  const std::byte* end;

  std::uint8_t u8() {
    if (p == end) throw WireError("fed: payload underrun");
    return static_cast<std::uint8_t>(*p++);
  }
  std::uint16_t u16() {
    std::uint16_t v = u8();
    return static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(u8()) << 8));
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
    }
    throw WireError("fed: varint too long");
  }
  std::int64_t svarint() { return unzigzag(varint()); }
  double f64() {
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return std::bit_cast<double>(bits);
  }
  std::string string() {
    const std::uint64_t n = varint();
    if (n > kMaxString) throw WireError("fed: string too long");
    if (static_cast<std::size_t>(end - p) < n) {
      throw WireError("fed: payload underrun");
    }
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    return s;
  }
  std::uint64_t list_len() {
    const std::uint64_t n = varint();
    if (n > kMaxListElems) throw WireError("fed: list too long");
    return n;
  }
  void done() const {
    if (p != end) throw WireError("fed: trailing bytes in payload");
  }
};

// --- message payload codecs ---

struct PayloadEncoder {
  std::vector<std::byte>& out;

  MsgType operator()(const HelloMsg& m) {
    put_string(out, m.zone);
    put_varint(out, m.incarnation);
    put_u16(out, m.version);
    return MsgType::kHello;
  }
  MsgType operator()(const HelloAckMsg& m) {
    put_varint(out, m.incarnation);
    put_varint(out, m.watermarks.size());
    for (const SeriesWatermark& w : m.watermarks) {
      put_varint(out, w.series);
      put_varint(out, w.page_seq);
    }
    return MsgType::kHelloAck;
  }
  MsgType operator()(const SeriesDeclMsg& m) {
    put_varint(out, m.series);
    put_u8(out, m.metric);
    put_varint(out, m.endpoints.size());
    for (const WireEndpoint& e : m.endpoints) {
      put_string(out, e.process);
      put_u32(out, e.ip);
      put_u16(out, e.port);
    }
    return MsgType::kSeriesDecl;
  }
  MsgType operator()(const PageMsg& m) {
    put_varint(out, m.series);
    put_varint(out, m.page_seq);
    put_u8(out, m.tier);
    put_varint(out, m.points.size());
    std::int64_t prev_last = 0;
    for (const core::TierPoint& pt : m.points) {
      put_svarint(out, wrapping_sub(pt.first_ns, prev_last));
      put_svarint(out, wrapping_sub(pt.last_ns, pt.first_ns));
      put_f64(out, pt.min);
      put_f64(out, pt.max);
      put_f64(out, pt.sum);
      put_varint(out, pt.count);
      put_varint(out, pt.valid_count);
      prev_last = pt.last_ns;
    }
    return MsgType::kPage;
  }
  MsgType operator()(const DeltaMsg& m) {
    put_varint(out, m.series);
    put_svarint(out, m.at_ns);
    put_f64(out, m.value);
    put_u8(out, m.valid ? 1 : 0);
    return MsgType::kDelta;
  }
  MsgType operator()(const AckMsg& m) {
    put_varint(out, m.series);
    put_varint(out, m.page_seq);
    return MsgType::kAck;
  }
  MsgType operator()(const GapMsg& m) {
    put_varint(out, m.series);
    put_varint(out, m.from_seq);
    put_varint(out, m.to_seq);
    put_varint(out, m.points);
    return MsgType::kGap;
  }
  MsgType operator()(const HeartbeatMsg& m) {
    put_svarint(out, m.at_ns);
    return MsgType::kHeartbeat;
  }
};

std::uint32_t narrow_u32(std::uint64_t v, const char* what) {
  if (v > 0xFFFFFFFFull) throw WireError(std::string("fed: ") + what);
  return static_cast<std::uint32_t>(v);
}

Message decode_payload(MsgType type, Reader r) {
  switch (type) {
    case MsgType::kHello: {
      HelloMsg m;
      m.zone = r.string();
      m.incarnation = r.varint();
      m.version = r.u16();
      r.done();
      return m;
    }
    case MsgType::kHelloAck: {
      HelloAckMsg m;
      m.incarnation = r.varint();
      const std::uint64_t n = r.list_len();
      m.watermarks.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        SeriesWatermark w;
        w.series = narrow_u32(r.varint(), "watermark series overflow");
        w.page_seq = r.varint();
        m.watermarks.push_back(w);
      }
      r.done();
      return m;
    }
    case MsgType::kSeriesDecl: {
      SeriesDeclMsg m;
      m.series = narrow_u32(r.varint(), "series overflow");
      m.metric = r.u8();
      const std::uint64_t n = r.list_len();
      m.endpoints.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        WireEndpoint e;
        e.process = r.string();
        e.ip = r.u32();
        e.port = r.u16();
        m.endpoints.push_back(std::move(e));
      }
      r.done();
      return m;
    }
    case MsgType::kPage: {
      PageMsg m;
      m.series = narrow_u32(r.varint(), "series overflow");
      m.page_seq = r.varint();
      m.tier = r.u8();
      const std::uint64_t n = r.list_len();
      m.points.reserve(n);
      std::int64_t prev_last = 0;
      for (std::uint64_t i = 0; i < n; ++i) {
        core::TierPoint pt;
        pt.first_ns = wrapping_add(prev_last, r.svarint());
        pt.last_ns = wrapping_add(pt.first_ns, r.svarint());
        pt.min = r.f64();
        pt.max = r.f64();
        pt.sum = r.f64();
        pt.count = narrow_u32(r.varint(), "point count overflow");
        pt.valid_count = narrow_u32(r.varint(), "point valid_count overflow");
        if (pt.valid_count > pt.count) {
          throw WireError("fed: point valid_count > count");
        }
        if (pt.last_ns < pt.first_ns) {
          throw WireError("fed: point time range inverted");
        }
        prev_last = pt.last_ns;
        m.points.push_back(pt);
      }
      r.done();
      return m;
    }
    case MsgType::kDelta: {
      DeltaMsg m;
      m.series = narrow_u32(r.varint(), "series overflow");
      m.at_ns = r.svarint();
      m.value = r.f64();
      const std::uint8_t valid = r.u8();
      if (valid > 1) throw WireError("fed: delta valid flag out of range");
      m.valid = valid != 0;
      r.done();
      return m;
    }
    case MsgType::kAck: {
      AckMsg m;
      m.series = narrow_u32(r.varint(), "series overflow");
      m.page_seq = r.varint();
      r.done();
      return m;
    }
    case MsgType::kGap: {
      GapMsg m;
      m.series = narrow_u32(r.varint(), "series overflow");
      m.from_seq = r.varint();
      m.to_seq = r.varint();
      m.points = r.varint();
      if (m.to_seq < m.from_seq) throw WireError("fed: gap range inverted");
      r.done();
      return m;
    }
    case MsgType::kHeartbeat: {
      HeartbeatMsg m;
      m.at_ns = r.svarint();
      r.done();
      return m;
    }
  }
  throw WireError("fed: unknown message type");
}

}  // namespace

std::uint32_t crc32(const std::byte* data, std::size_t n) {
  // Reflected IEEE 802.3 polynomial; table built on first use.
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ static_cast<std::uint8_t>(data[i])) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::byte> encode(const Message& message) {
  std::vector<std::byte> payload;
  const MsgType type = std::visit(PayloadEncoder{payload}, message);
  if (payload.size() > kMaxPayload) throw WireError("fed: payload too large");

  std::vector<std::byte> frame;
  frame.reserve(kHeaderBytes + payload.size() + 4);
  frame.push_back(kMagic0);
  frame.push_back(kMagic1);
  put_u8(frame, static_cast<std::uint8_t>(type));
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  // CRC over type + length + payload (everything after the magic).
  const std::uint32_t crc = crc32(frame.data() + 2, frame.size() - 2);
  put_u32(frame, crc);
  return frame;
}

void FrameParser::feed(std::span<const std::byte> data) {
  // Compact the consumed prefix before growing, so a long-lived connection
  // does not accrete every frame it ever parsed.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void FrameParser::reset() {
  buf_.clear();
  pos_ = 0;
}

std::optional<Message> FrameParser::next() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kHeaderBytes) return std::nullopt;
  const std::byte* h = buf_.data() + pos_;
  if (h[0] != kMagic0 || h[1] != kMagic1) {
    throw WireError("fed: bad frame magic");
  }
  const std::uint8_t type = static_cast<std::uint8_t>(h[2]);
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(h[3 + i]))
           << (8 * i);
  }
  if (len > kMaxPayload) throw WireError("fed: declared payload too large");
  const std::size_t total = kHeaderBytes + len + 4;
  if (avail < total) return std::nullopt;

  const std::uint32_t computed = crc32(h + 2, 1 + 4 + len);
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(
                  static_cast<std::uint8_t>(h[kHeaderBytes + len + i]))
              << (8 * i);
  }
  if (computed != stored) throw WireError("fed: frame CRC mismatch");

  Reader r{h + kHeaderBytes, h + kHeaderBytes + len};
  Message m = decode_payload(static_cast<MsgType>(type), r);
  pos_ += total;
  return m;
}

}  // namespace netmon::fed
