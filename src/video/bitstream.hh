/**
 * @file
 * Bit-level writer used by golden references and tests to build and
 * inspect coded output.
 */

#ifndef VVSP_VIDEO_BITSTREAM_HH
#define VVSP_VIDEO_BITSTREAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vvsp
{

/**
 * MSB-first bit extractor over a byte buffer; the read-side pair of
 * BitWriter (a writer's 16-bit words serialized big-endian decode
 * back bit-for-bit). Reading past the end yields zero bits and
 * latches an overflow flag instead of crashing, so decoders can
 * finish a field, then report truncation with context.
 */
class BitReader
{
  public:
    BitReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {
    }

    /** Extract the next `bits` bits, MSB first (0 on overflow). */
    uint32_t get(int bits);

    /** False once any read has run past the end of the buffer. */
    bool ok() const { return !overflow_; }

    /** Bits remaining before overflow. */
    uint64_t bitsLeft() const
    {
        uint64_t total = static_cast<uint64_t>(size_) * 8;
        return bit_pos_ >= total ? 0 : total - bit_pos_;
    }

  private:
    const uint8_t *data_;
    size_t size_;
    uint64_t bit_pos_ = 0;
    bool overflow_ = false;
};

/** MSB-first bit accumulator producing 16-bit output words. */
class BitWriter
{
  public:
    /** Append the low `bits` bits of `value`, MSB first. */
    void put(uint32_t value, int bits);

    /** Pad with zero bits to a 16-bit word boundary. */
    void flush();

    /** Completed 16-bit words so far. */
    const std::vector<uint16_t> &words() const { return words_; }

    /** Total bits written (excluding flush padding). */
    uint64_t bitCount() const { return bit_count_; }

    /** Bits pending in the partial word. */
    int pendingBits() const { return pending_bits_; }

  private:
    std::vector<uint16_t> words_;
    uint16_t pending_ = 0;
    int pending_bits_ = 0;
    uint64_t bit_count_ = 0;
};

} // namespace vvsp

#endif // VVSP_VIDEO_BITSTREAM_HH
