#include "stream/codec.hh"

#include <cstring>
#include <sys/stat.h>

#include "common/log.hh"

namespace slinfer
{
namespace stream
{

// --------------------------------------------------------------------
// Primitives
// --------------------------------------------------------------------

namespace
{

struct Crc32Table
{
    std::uint32_t t[256];
    Crc32Table()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
    }
};

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n, std::uint32_t seed)
{
    static const Crc32Table table;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = table.t[(c ^ p[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>(v | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

bool
getVarint(const std::uint8_t *&p, const std::uint8_t *end,
          std::uint64_t &v)
{
    v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        if (p >= end)
            return false;
        std::uint8_t b = *p++;
        v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
        if ((b & 0x80) == 0)
            return true;
    }
    return false;
}

// --------------------------------------------------------------------
// Fixed-width little-endian framing helpers
// --------------------------------------------------------------------

namespace
{

constexpr char kStrcMagic[6] = {'S', 'T', 'R', 'C', '1', '\n'};
constexpr std::uint8_t kStrcVersion = 1;
constexpr std::uint32_t kChunkMagic = 0x4B484353u;  // "SCHK"
constexpr std::uint32_t kIndexMagic = 0x58444953u;  // "SIDX"
constexpr char kTailMagic[8] = {'S', 'T', 'R', 'C',
                                'E', 'N', 'D', '\n'};
constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kChunkHeaderBytes = 24;
constexpr std::size_t kFooterBytes = 16;
/** Refuse absurd on-disk sizes before allocating (corrupt field). */
constexpr std::uint32_t kMaxPayload = 1u << 30;

void
put32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
put64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
putF64(std::string &out, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    put64(out, bits);
}

std::uint32_t
get32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

std::uint64_t
get64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

double
getF64(const std::uint8_t *p)
{
    std::uint64_t bits = get64(p);
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
}

bool
readExact(std::FILE *f, void *buf, std::size_t n)
{
    return std::fread(buf, 1, n, f) == n;
}

bool
writeAll(std::FILE *f, const std::string &bytes)
{
    return std::fwrite(bytes.data(), 1, bytes.size(), f) ==
           bytes.size();
}

bool
fail(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
    return false;
}

// --------------------------------------------------------------------
// Column context models (reset per chunk => independent decode)
// --------------------------------------------------------------------

/** Per-chunk adaptive state for the trace columns: ~140 KB, heap
 *  allocated once per chunk encode/decode. */
struct ChunkModels
{
    /** Significant-byte count of the time XOR-delta (0..8), a 4-bit
     *  tree conditioned on the previous count. */
    BitModel timeLen[9][16];
    /** The delta's significant bytes, one order-0 model per byte
     *  position (exponent/high-mantissa positions have very different
     *  statistics from low-mantissa noise). */
    ByteModel timeByte[8];
    /** Model-id varint bytes, order-1 on the previous column byte —
     *  a bigram model over the (skewed, repetitive) id stream. */
    ByteModel modelByte[256];
    /** Length varint bytes per column, keyed by byte position. */
    ByteModel lenByte[2][5];
};

void
encodeTimeDelta(RangeEncoder &enc, ChunkModels &m, std::uint64_t x,
                int &prevK)
{
    int k = 0;
    for (std::uint64_t t = x; t != 0; t >>= 8)
        ++k;
    std::uint32_t ctx = 1;
    for (int bit = 3; bit >= 0; --bit) {
        int b = (k >> bit) & 1;
        enc.encode(m.timeLen[prevK][ctx], b);
        ctx = ctx * 2 + static_cast<std::uint32_t>(b);
    }
    for (int i = k - 1; i >= 0; --i)
        m.timeByte[i].encode(
            enc, static_cast<std::uint8_t>((x >> (8 * i)) & 0xFF));
    prevK = k;
}

std::uint64_t
decodeTimeDelta(RangeDecoder &dec, ChunkModels &m, int &prevK)
{
    std::uint32_t ctx = 1;
    for (int bit = 0; bit < 4; ++bit)
        ctx = ctx * 2 + static_cast<std::uint32_t>(
                            dec.decode(m.timeLen[prevK][ctx]));
    int k = static_cast<int>(ctx & 0xF);
    std::uint64_t x = 0;
    for (int i = k - 1; i >= 0; --i)
        x |= static_cast<std::uint64_t>(m.timeByte[i].decode(dec))
             << (8 * i);
    prevK = k <= 8 ? k : 8; // corrupt payloads must not index OOB
    return x;
}

void
encodeVarintBytes(RangeEncoder &enc, std::uint64_t v, ByteModel *models,
                  int nModels, std::uint8_t *prevByteCtx)
{
    std::string tmp;
    putVarint(tmp, v);
    for (std::size_t i = 0; i < tmp.size(); ++i) {
        std::uint8_t b = static_cast<std::uint8_t>(tmp[i]);
        if (prevByteCtx) {
            models[*prevByteCtx].encode(enc, b);
            *prevByteCtx = b;
        } else {
            int pos = static_cast<int>(i) < nModels - 1
                          ? static_cast<int>(i)
                          : nModels - 1;
            models[pos].encode(enc, b);
        }
    }
}

std::uint64_t
decodeVarintBytes(RangeDecoder &dec, ByteModel *models, int nModels,
                  std::uint8_t *prevByteCtx)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 10; ++i) {
        std::uint8_t b;
        if (prevByteCtx) {
            b = models[*prevByteCtx].decode(dec);
            *prevByteCtx = b;
        } else {
            int pos = i < nModels - 1 ? i : nModels - 1;
            b = models[pos].decode(dec);
        }
        v |= static_cast<std::uint64_t>(b & 0x7F) << (7 * i);
        if ((b & 0x80) == 0)
            break;
    }
    return v;
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    return bits;
}

double
bitsDouble(std::uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
}

/** Encode `recs` columnar into one range-coded payload. */
std::string
encodeChunk(const std::vector<TraceRecord> &recs, bool hasLengths)
{
    auto m = std::make_unique<ChunkModels>();
    std::string out;
    out.reserve(recs.size() * 4);
    RangeEncoder enc(out);

    std::uint64_t prevBits = 0;
    int prevK = 0;
    for (const TraceRecord &r : recs) {
        std::uint64_t bits = doubleBits(r.time);
        encodeTimeDelta(enc, *m, bits ^ prevBits, prevK);
        prevBits = bits;
    }
    std::uint8_t prevModelByte = 0;
    for (const TraceRecord &r : recs)
        encodeVarintBytes(enc, r.model, m->modelByte, 256,
                          &prevModelByte);
    if (hasLengths) {
        for (const TraceRecord &r : recs)
            encodeVarintBytes(enc, r.inputLen, m->lenByte[0], 5,
                              nullptr);
        for (const TraceRecord &r : recs)
            encodeVarintBytes(enc, r.targetOutput, m->lenByte[1], 5,
                              nullptr);
    }
    enc.finish();
    return out;
}

/** Mirror of encodeChunk. */
void
decodeChunk(const std::uint8_t *payload, std::size_t n,
            std::uint32_t count, bool hasLengths,
            std::vector<TraceRecord> &out)
{
    auto m = std::make_unique<ChunkModels>();
    RangeDecoder dec(payload, n);
    out.clear();
    out.resize(count);

    std::uint64_t prevBits = 0;
    int prevK = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint64_t bits =
            decodeTimeDelta(dec, *m, prevK) ^ prevBits;
        out[i].time = bitsDouble(bits);
        prevBits = bits;
    }
    std::uint8_t prevModelByte = 0;
    for (std::uint32_t i = 0; i < count; ++i)
        out[i].model = static_cast<std::uint32_t>(decodeVarintBytes(
            dec, m->modelByte, 256, &prevModelByte));
    if (hasLengths) {
        for (std::uint32_t i = 0; i < count; ++i)
            out[i].inputLen = static_cast<std::uint32_t>(
                decodeVarintBytes(dec, m->lenByte[0], 5, nullptr));
        for (std::uint32_t i = 0; i < count; ++i)
            out[i].targetOutput = static_cast<std::uint32_t>(
                decodeVarintBytes(dec, m->lenByte[1], 5, nullptr));
    }
}

std::string
strcHeaderBytes(const StrcHeader &hdr)
{
    std::string out;
    out.append(kStrcMagic, sizeof(kStrcMagic));
    out.push_back(static_cast<char>(kStrcVersion));
    out.push_back(static_cast<char>(hdr.hasLengths ? 1 : 0));
    put32(out, hdr.numModels);
    put32(out, 0); // reserved
    put64(out, hdr.totalRequests);
    putF64(out, hdr.duration);
    return out;
}

} // namespace

// --------------------------------------------------------------------
// StrcWriter
// --------------------------------------------------------------------

StrcWriter::~StrcWriter()
{
    if (file_)
        std::fclose(file_);
}

bool
StrcWriter::open(const std::string &path, const StrcHeader &hdr,
                 std::string *err, std::uint32_t chunkCap)
{
    if (file_)
        fatal("StrcWriter::open: already open");
    if (chunkCap == 0)
        fatal("StrcWriter::open: chunkCap must be positive");
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        return fail(err, "cannot create " + path);
    path_ = path;
    hdr_ = hdr;
    chunkCap_ = chunkCap;
    if (!writeAll(file_, strcHeaderBytes(hdr_)))
        return fail(err, "write error on " + path);
    return true;
}

void
StrcWriter::add(const TraceRecord &rec)
{
    if (!file_)
        fatal("StrcWriter::add before open");
    if (written_ > 0 && rec.time < lastTime_)
        fatal("StrcWriter::add: records must be sorted by time");
    lastTime_ = rec.time;
    pending_.push_back(rec);
    ++written_;
    if (pending_.size() >= chunkCap_)
        flushChunk();
}

void
StrcWriter::flushChunk()
{
    if (pending_.empty())
        return;
    std::string payload = encodeChunk(pending_, hdr_.hasLengths);

    IndexEntry e;
    e.offset = static_cast<std::uint64_t>(std::ftell(file_));
    e.count = static_cast<std::uint32_t>(pending_.size());
    e.firstTime = pending_.front().time;
    index_.push_back(e);

    std::string frame;
    put32(frame, kChunkMagic);
    put32(frame, e.count);
    put32(frame, static_cast<std::uint32_t>(payload.size()));
    put32(frame, crc32(payload.data(), payload.size()));
    putF64(frame, e.firstTime);
    if (!writeAll(file_, frame) || !writeAll(file_, payload))
        fatal("StrcWriter: write error on " + path_);
    pending_.clear();
}

bool
StrcWriter::finish(std::string *err)
{
    if (!file_)
        fatal("StrcWriter::finish before open");
    flushChunk();

    std::string index;
    put64(index, static_cast<std::uint64_t>(index_.size()));
    for (const IndexEntry &e : index_) {
        put64(index, e.offset);
        put32(index, e.count);
        putF64(index, e.firstTime);
    }
    std::uint64_t indexOffset =
        static_cast<std::uint64_t>(std::ftell(file_));
    std::string tail;
    put32(tail, kIndexMagic);
    tail += index;
    put32(tail, crc32(index.data(), index.size()));
    put64(tail, indexOffset);
    tail.append(kTailMagic, sizeof(kTailMagic));
    if (!writeAll(file_, tail))
        return fail(err, "write error on " + path_);

    // Restamp the header's record count: callers streaming an
    // unknown-size source open with totalRequests = 0.
    hdr_.totalRequests = written_;
    if (std::fseek(file_, 0, SEEK_SET) != 0 ||
        !writeAll(file_, strcHeaderBytes(hdr_)))
        return fail(err, "header restamp failed on " + path_);

    if (std::fclose(file_) != 0) {
        file_ = nullptr;
        return fail(err, "close failed on " + path_);
    }
    file_ = nullptr;
    return true;
}

// --------------------------------------------------------------------
// StrcReader
// --------------------------------------------------------------------

StrcReader::~StrcReader()
{
    if (file_)
        std::fclose(file_);
}

bool
StrcReader::open(const std::string &path, std::string *err)
{
    if (file_)
        fatal("StrcReader::open: already open");
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        return fail(err, "cannot open " + path);
    path_ = path;

    std::uint8_t hdr[kHeaderBytes];
    if (!readExact(file_, hdr, sizeof(hdr)))
        return fail(err, path + ": not a .strc file (short header)");
    if (std::memcmp(hdr, kStrcMagic, sizeof(kStrcMagic)) != 0)
        return fail(err, path + ": not a .strc file (bad magic)");
    if (hdr[6] != kStrcVersion)
        return fail(err, path + ": unsupported .strc version " +
                             std::to_string(hdr[6]));
    hdr_.hasLengths = hdr[7] != 0;
    hdr_.numModels = get32(hdr + 8);
    hdr_.totalRequests = get64(hdr + 16);
    hdr_.duration = getF64(hdr + 24);

    if (!loadIndex(err)) {
        // Torn or corrupt tail: salvage every complete chunk.
        recovered_ = true;
        scanChunks();
    }
    for (const IndexEntry &e : index_)
        records_ += e.count;
    return true;
}

bool
StrcReader::loadIndex(std::string *err)
{
    if (std::fseek(file_, 0, SEEK_END) != 0)
        return fail(err, "seek failed");
    long size = std::ftell(file_);
    if (size < static_cast<long>(kHeaderBytes + kFooterBytes))
        return fail(err, "no footer");
    std::uint8_t foot[kFooterBytes];
    if (std::fseek(file_, size - static_cast<long>(kFooterBytes),
                   SEEK_SET) != 0 ||
        !readExact(file_, foot, sizeof(foot)))
        return fail(err, "short footer");
    if (std::memcmp(foot + 8, kTailMagic, sizeof(kTailMagic)) != 0)
        return fail(err, "bad tail magic");
    std::uint64_t indexOffset = get64(foot);
    if (indexOffset < kHeaderBytes ||
        indexOffset + kFooterBytes > static_cast<std::uint64_t>(size))
        return fail(err, "index offset out of range");

    if (std::fseek(file_, static_cast<long>(indexOffset), SEEK_SET) !=
        0)
        return fail(err, "seek failed");
    std::uint8_t fixed[12];
    if (!readExact(file_, fixed, sizeof(fixed)))
        return fail(err, "short index");
    if (get32(fixed) != kIndexMagic)
        return fail(err, "bad index magic");
    std::uint64_t n = get64(fixed + 4);
    std::uint64_t bodyBytes = 8 + n * 20;
    if (n > (1ull << 32) ||
        indexOffset + 4 + bodyBytes + 4 + kFooterBytes >
            static_cast<std::uint64_t>(size))
        return fail(err, "index size out of range");

    std::vector<std::uint8_t> body(bodyBytes);
    std::memcpy(body.data(), fixed + 4, 8);
    if (!readExact(file_, body.data() + 8, bodyBytes - 8))
        return fail(err, "short index body");
    std::uint8_t crcBuf[4];
    if (!readExact(file_, crcBuf, 4) ||
        get32(crcBuf) != crc32(body.data(), body.size()))
        return fail(err, "index checksum mismatch");

    index_.clear();
    const std::uint8_t *p = body.data() + 8;
    for (std::uint64_t i = 0; i < n; ++i, p += 20) {
        IndexEntry e;
        e.offset = get64(p);
        e.count = get32(p + 8);
        e.firstTime = getF64(p + 12);
        index_.push_back(e);
    }
    // Total compressed payload: chunks span [header, index), each with
    // a fixed frame header in front of its payload.
    payloadBytes_ = indexOffset - kHeaderBytes - n * kChunkHeaderBytes;
    return true;
}

void
StrcReader::scanChunks()
{
    index_.clear();
    std::uint64_t pos = kHeaderBytes;
    std::vector<std::uint8_t> payload;
    for (;;) {
        if (std::fseek(file_, static_cast<long>(pos), SEEK_SET) != 0)
            return;
        std::uint8_t ch[kChunkHeaderBytes];
        if (!readExact(file_, ch, sizeof(ch)))
            return; // clean EOF or torn mid-header
        if (get32(ch) != kChunkMagic)
            return; // index region, or garbage: stop salvaging
        std::uint32_t count = get32(ch + 4);
        std::uint32_t payloadSize = get32(ch + 8);
        std::uint32_t crc = get32(ch + 12);
        if (payloadSize > kMaxPayload)
            return;
        payload.resize(payloadSize);
        if (!readExact(file_, payload.data(), payloadSize))
            return; // torn mid-payload
        if (crc32(payload.data(), payload.size()) != crc)
            return; // corrupt chunk: everything before it survives
        IndexEntry e;
        e.offset = pos;
        e.count = count;
        e.firstTime = getF64(ch + 16);
        index_.push_back(e);
        payloadBytes_ += payloadSize;
        pos += kChunkHeaderBytes + payloadSize;
    }
}

Seconds
StrcReader::firstTimeOfChunk(std::size_t i) const
{
    if (i >= index_.size())
        fatal("StrcReader::firstTimeOfChunk: index out of range");
    return index_[i].firstTime;
}

bool
StrcReader::readChunk(std::size_t i, std::vector<TraceRecord> &out,
                      std::string *err)
{
    if (i >= index_.size())
        return fail(err, "chunk index out of range");
    const IndexEntry &e = index_[i];
    if (std::fseek(file_, static_cast<long>(e.offset), SEEK_SET) != 0)
        return fail(err, "seek failed");
    std::uint8_t ch[kChunkHeaderBytes];
    if (!readExact(file_, ch, sizeof(ch)) || get32(ch) != kChunkMagic)
        return fail(err, "bad chunk header");
    std::uint32_t count = get32(ch + 4);
    std::uint32_t payloadSize = get32(ch + 8);
    std::uint32_t crc = get32(ch + 12);
    if (count != e.count)
        return fail(err, "chunk count disagrees with index");
    if (payloadSize > kMaxPayload)
        return fail(err, "chunk payload size out of range");
    std::vector<std::uint8_t> payload(payloadSize);
    if (!readExact(file_, payload.data(), payloadSize))
        return fail(err, "short chunk payload");
    if (crc32(payload.data(), payload.size()) != crc)
        return fail(err, "chunk checksum mismatch");
    decodeChunk(payload.data(), payload.size(), count, hdr_.hasLengths,
                out);
    return true;
}

bool
StrcReader::next(TraceRecord &rec)
{
    while (curPos_ >= cur_.size()) {
        if (curChunk_ >= index_.size())
            return false;
        std::string err;
        if (!readChunk(curChunk_, cur_, &err))
            fatal("StrcReader: " + path_ + " chunk " +
                  std::to_string(curChunk_) + ": " + err);
        ++curChunk_;
        curPos_ = 0;
    }
    rec = cur_[curPos_++];
    return true;
}

} // namespace stream
} // namespace slinfer
