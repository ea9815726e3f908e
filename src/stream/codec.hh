/**
 * @file
 * The `.strc` compressed trace format and its building blocks.
 *
 * A `.strc` file holds one arrival trace — (time, model) pairs, with
 * optional per-request token lengths — as a sequence of independently
 * decodable chunks plus a seekable chunk index:
 *
 *   header | chunk* | index | footer
 *
 * Each chunk encodes up to `chunkCap` records *columnar*: all arrival
 * timestamps, then all model ids, then (when present) all length
 * pairs. Timestamps are XOR-deltas of the raw IEEE-754 bit patterns —
 * lossless by construction, and consecutive arrivals share exponent
 * and high-mantissa bytes so most deltas have 3-5 significant bytes.
 * Every column is then squeezed through a small adaptive binary
 * range coder with per-column context models (the Moruga/lpaq idiom:
 * bit-tree byte models updated on the fly; see DESIGN.md, "The .strc
 * codec"). Models reset per chunk, which is what makes chunks
 * independently decodable — the price of seekability.
 *
 * Integrity: every chunk carries a CRC-32 of its coded payload, and
 * the index carries its own. A torn or corrupt file (killed mid-write,
 * truncated copy) degrades, never traps: the reader falls back to a
 * sequential scan and recovers every complete, checksummed chunk
 * before the damage (StrcReader::recovered()).
 */

#ifndef SLINFER_STREAM_CODEC_HH
#define SLINFER_STREAM_CODEC_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace slinfer
{
namespace stream
{

// --------------------------------------------------------------------
// Primitives
// --------------------------------------------------------------------

/** CRC-32 (IEEE 802.3, reflected) of `n` bytes, chainable via `seed`. */
std::uint32_t crc32(const void *data, std::size_t n,
                    std::uint32_t seed = 0);

/** LEB128 append. */
void putVarint(std::string &out, std::uint64_t v);

/** LEB128 read; false on truncation/overlong input. `p` advances. */
bool getVarint(const std::uint8_t *&p, const std::uint8_t *end,
               std::uint64_t &v);

/**
 * One adaptive binary probability (12-bit, lpaq-style shift update).
 * Starts at 1/2; each observed bit nudges it 1/32 of the way toward
 * that bit's certainty.
 */
struct BitModel
{
    std::uint16_t p = 2048; ///< P(bit = 1) in [1, 4095] / 4096

    void
    update(int bit)
    {
        if (bit)
            p += (4096 - p) >> 5;
        else
            p -= p >> 5;
    }
};

/** Carryless binary range encoder over a growing byte string. */
class RangeEncoder
{
  public:
    explicit RangeEncoder(std::string &out) : out_(out) {}

    void
    encode(BitModel &m, int bit)
    {
        std::uint32_t mid =
            x1_ + ((x2_ - x1_) >> 12) * m.p;
        if (bit)
            x2_ = mid;
        else
            x1_ = mid + 1;
        m.update(bit);
        while (((x1_ ^ x2_) & 0xFF000000u) == 0) {
            out_.push_back(static_cast<char>(x2_ >> 24));
            x1_ <<= 8;
            x2_ = (x2_ << 8) | 255u;
        }
    }

    /** Flush the final state; the encoder is dead afterwards. */
    void
    finish()
    {
        for (int i = 0; i < 4; ++i) {
            out_.push_back(static_cast<char>(x1_ >> 24));
            x1_ <<= 8;
        }
    }

  private:
    std::string &out_;
    std::uint32_t x1_ = 0;
    std::uint32_t x2_ = 0xFFFFFFFFu;
};

/** Mirror of RangeEncoder over a byte span. Reading past the payload
 *  yields zero bytes — the symbol counts stored in the chunk header
 *  bound every decode loop, so this never misparses valid input. */
class RangeDecoder
{
  public:
    RangeDecoder(const std::uint8_t *data, std::size_t n)
        : p_(data), end_(data + n)
    {
        for (int i = 0; i < 4; ++i)
            x_ = (x_ << 8) | nextByte();
    }

    int
    decode(BitModel &m)
    {
        std::uint32_t mid =
            x1_ + ((x2_ - x1_) >> 12) * m.p;
        int bit = x_ <= mid;
        if (bit)
            x2_ = mid;
        else
            x1_ = mid + 1;
        m.update(bit);
        while (((x1_ ^ x2_) & 0xFF000000u) == 0) {
            x1_ <<= 8;
            x2_ = (x2_ << 8) | 255u;
            x_ = (x_ << 8) | nextByte();
        }
        return bit;
    }

  private:
    std::uint32_t
    nextByte()
    {
        return p_ < end_ ? *p_++ : 0u;
    }

    const std::uint8_t *p_;
    const std::uint8_t *end_;
    std::uint32_t x1_ = 0;
    std::uint32_t x2_ = 0xFFFFFFFFu;
    std::uint32_t x_ = 0;
};

/** Bit-tree byte model: 255 adaptive bits keyed by the MSB-first
 *  prefix, i.e. an order-0 adaptive byte distribution. */
struct ByteModel
{
    BitModel node[256];

    void
    encode(RangeEncoder &enc, std::uint8_t byte)
    {
        std::uint32_t ctx = 1;
        for (int i = 7; i >= 0; --i) {
            int bit = (byte >> i) & 1;
            enc.encode(node[ctx], bit);
            ctx = ctx * 2 + static_cast<std::uint32_t>(bit);
        }
    }

    std::uint8_t
    decode(RangeDecoder &dec)
    {
        std::uint32_t ctx = 1;
        for (int i = 0; i < 8; ++i)
            ctx = ctx * 2 + static_cast<std::uint32_t>(
                                dec.decode(node[ctx]));
        return static_cast<std::uint8_t>(ctx & 0xFF);
    }
};

// --------------------------------------------------------------------
// .strc trace files
// --------------------------------------------------------------------

/** One decoded trace record. Lengths are 0 when the file carries no
 *  length columns (StrcHeader::hasLengths). */
struct TraceRecord
{
    Seconds time = 0.0;
    std::uint32_t model = 0;
    std::uint32_t inputLen = 0;
    std::uint32_t targetOutput = 0;
};

struct StrcHeader
{
    bool hasLengths = false;
    std::uint32_t numModels = 0;
    std::uint64_t totalRequests = 0;
    Seconds duration = 0.0;
};

/** Default records per chunk; tests shrink it to force multi-chunk
 *  files from small inputs. 64 Ki records decode into ~1.5 MB — the
 *  streaming reader's whole in-memory footprint per file. */
constexpr std::uint32_t kStrcChunkCap = 1u << 16;

class StrcWriter
{
  public:
    StrcWriter() = default;
    ~StrcWriter();

    StrcWriter(const StrcWriter &) = delete;
    StrcWriter &operator=(const StrcWriter &) = delete;

    /** Create `path`. `hdr.totalRequests` may be 0 (unknown); it is
     *  restamped from the actual record count at finish(). */
    bool open(const std::string &path, const StrcHeader &hdr,
              std::string *err,
              std::uint32_t chunkCap = kStrcChunkCap);

    /** Append one record. Records must arrive in nondecreasing time
     *  order (checked fatally — the format delta-codes timestamps and
     *  the replay path requires sortedness anyway). */
    void add(const TraceRecord &rec);

    /** Flush the tail chunk, write index + footer, close. */
    bool finish(std::string *err);

    std::uint64_t written() const { return written_; }

  private:
    void flushChunk();

    struct IndexEntry
    {
        std::uint64_t offset = 0;
        std::uint32_t count = 0;
        Seconds firstTime = 0.0;
    };

    std::FILE *file_ = nullptr;
    std::string path_;
    StrcHeader hdr_;
    std::uint32_t chunkCap_ = kStrcChunkCap;
    std::vector<TraceRecord> pending_;
    std::vector<IndexEntry> index_;
    std::uint64_t written_ = 0;
    Seconds lastTime_ = 0.0;
};

class StrcReader
{
  public:
    StrcReader() = default;
    ~StrcReader();

    StrcReader(const StrcReader &) = delete;
    StrcReader &operator=(const StrcReader &) = delete;

    /**
     * Open `path`. A valid footer loads the seekable index; a missing
     * or corrupt one (torn file) falls back to a sequential scan that
     * keeps every complete checksummed chunk (recovered() turns true
     * and recordCount() may undershoot header().totalRequests).
     */
    bool open(const std::string &path, std::string *err);

    const StrcHeader &header() const { return hdr_; }
    std::size_t chunkCount() const { return index_.size(); }
    /** Records across all readable chunks. */
    std::uint64_t recordCount() const { return records_; }
    /** True when the index was rebuilt by scanning (torn file). */
    bool recovered() const { return recovered_; }
    /** Compressed payload bytes across readable chunks. */
    std::uint64_t compressedBytes() const { return payloadBytes_; }

    /** First timestamp of chunk `i` (from the index — no decode). */
    Seconds firstTimeOfChunk(std::size_t i) const;

    /** Decode chunk `i` (seek + checksum + decode). */
    bool readChunk(std::size_t i, std::vector<TraceRecord> &out,
                   std::string *err);

    /** Sequential cursor over all records, pulling one chunk at a
     *  time; false at end-of-trace. Fatal on a chunk that validated
     *  at open but fails to read now (I/O error). */
    bool next(TraceRecord &rec);

  private:
    struct IndexEntry
    {
        std::uint64_t offset = 0;
        std::uint32_t count = 0;
        Seconds firstTime = 0.0;
    };

    bool loadIndex(std::string *err);
    void scanChunks();

    std::FILE *file_ = nullptr;
    std::string path_;
    StrcHeader hdr_;
    std::vector<IndexEntry> index_;
    std::uint64_t records_ = 0;
    std::uint64_t payloadBytes_ = 0;
    bool recovered_ = false;

    // next() cursor
    std::vector<TraceRecord> cur_;
    std::size_t curChunk_ = 0; ///< next chunk to decode
    std::size_t curPos_ = 0;
};

} // namespace stream
} // namespace slinfer

#endif // SLINFER_STREAM_CODEC_HH
