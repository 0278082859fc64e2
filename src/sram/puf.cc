#include "sram/puf.hh"

#include <cmath>

#include "sim/logging.hh"

namespace voltboot
{

namespace
{

/** Power-cycle an array long enough that nothing survives. */
void
freshPowerUp(MemoryArray &array)
{
    if (array.powerState() != PowerState::Off)
        array.powerDown();
    array.powerUp(Volt(0.8), Seconds(10.0), Temperature::celsius(25.0));
}

} // namespace

MemoryImage
SramPuf::observe()
{
    freshPowerUp(array_);
    return MemoryImage(array_.snapshot());
}

void
SramPuf::enroll()
{
    if (vote_rounds_ == 0)
        fatal("SramPuf: need at least one enrollment round");
    std::vector<unsigned> ones(array_.sizeBits(), 0);
    for (unsigned round = 0; round < vote_rounds_; ++round) {
        const MemoryImage obs = observe();
        for (size_t bit = 0; bit < obs.sizeBits(); ++bit)
            ones[bit] += obs.bitAt(bit);
    }
    reference_.assign(array_.sizeBytes(), 0);
    for (size_t bit = 0; bit < ones.size(); ++bit)
        if (ones[bit] * 2 > vote_rounds_)
            reference_[bit / 8] |= 1u << (bit % 8);
    reference_img_ = MemoryImage(reference_);
}

bool
SramPuf::authenticate(double *out_hd)
{
    if (!enrolled())
        fatal("SramPuf: enroll before authenticating");
    const MemoryImage obs = observe();
    const double hd =
        MemoryImage::fractionalHamming(obs, reference_img_);
    if (out_hd)
        *out_hd = hd;
    return hd < threshold_;
}

void
SramTrng::calibrate(unsigned rounds)
{
    if (rounds < 2)
        fatal("SramTrng: need at least two calibration rounds");
    freshPowerUp(array_);
    const std::vector<uint8_t> base = array_.snapshot();
    std::vector<uint8_t> flipped(array_.sizeBytes(), 0);
    for (unsigned round = 1; round < rounds; ++round) {
        freshPowerUp(array_);
        const std::vector<uint8_t> obs = array_.snapshot();
        for (size_t i = 0; i < obs.size(); ++i)
            flipped[i] |= static_cast<uint8_t>(obs[i] ^ base[i]);
    }
    noisy_cells_.clear();
    for (size_t i = 0; i < flipped.size(); ++i)
        for (int bit = 0; bit < 8; ++bit)
            if ((flipped[i] >> bit) & 1)
                noisy_cells_.push_back(i * 8 + bit);
}

std::vector<bool>
SramTrng::harvest(size_t bits)
{
    if (noisy_cells_.empty())
        fatal("SramTrng: calibrate before harvesting");
    std::vector<bool> out;
    out.reserve(bits);
    // Temporal Von Neumann debiasing: compare the SAME cell across two
    // successive power-ups. Each cell's bias theta cancels exactly
    // (P(01) == P(10) == theta(1-theta)); pairing different cells would
    // not debias because their biases differ.
    size_t guard = 0;
    while (out.size() < bits && guard < 10000) {
        ++guard;
        freshPowerUp(array_);
        const std::vector<uint8_t> first = array_.snapshot();
        freshPowerUp(array_);
        const std::vector<uint8_t> second = array_.snapshot();
        for (uint64_t cell : noisy_cells_) {
            if (out.size() >= bits)
                break;
            const bool b1 = (first[cell / 8] >> (cell % 8)) & 1;
            const bool b2 = (second[cell / 8] >> (cell % 8)) & 1;
            if (b1 != b2)
                out.push_back(b1);
        }
    }
    return out;
}

double
SramTrng::bias(const std::vector<bool> &bits)
{
    if (bits.empty())
        return 0.0;
    long ones = 0;
    for (bool b : bits)
        ones += b;
    const long zeros = static_cast<long>(bits.size()) - ones;
    return std::abs(static_cast<double>(ones - zeros)) /
           static_cast<double>(bits.size());
}

double
SramTrng::serialCorrelation(const std::vector<bool> &bits)
{
    if (bits.size() < 2)
        return 0.0;
    double mean = 0.0;
    for (bool b : bits)
        mean += b;
    mean /= static_cast<double>(bits.size());
    double num = 0.0, den = 0.0;
    for (size_t i = 0; i + 1 < bits.size(); ++i) {
        num += (bits[i] - mean) * (bits[i + 1] - mean);
        den += (bits[i] - mean) * (bits[i] - mean);
    }
    return den != 0.0 ? num / den : 0.0;
}

PufMetrics
measurePufMetrics(size_t array_bytes, size_t chips,
                  unsigned observations_per_chip, uint64_t seed_base)
{
    if (chips < 2)
        fatal("measurePufMetrics: need at least two chips");
    PufMetrics m;

    std::vector<MemoryImage> first_obs;
    double intra_total = 0.0;
    size_t intra_count = 0;
    double ones_total = 0.0;
    size_t ones_count = 0;

    for (size_t chip = 0; chip < chips; ++chip) {
        SramArray array("puf", array_bytes, seed_base + chip, 1);
        SramPuf puf(array);
        const MemoryImage base = puf.observe();
        first_obs.push_back(base);
        ones_total += base.onesDensity();
        ++ones_count;
        for (unsigned obs = 1; obs < observations_per_chip; ++obs) {
            const MemoryImage img = puf.observe();
            intra_total += MemoryImage::fractionalHamming(img, base);
            ++intra_count;
        }
    }

    double inter_total = 0.0;
    size_t inter_count = 0;
    for (size_t a = 0; a < chips; ++a) {
        for (size_t b = a + 1; b < chips; ++b) {
            inter_total += MemoryImage::fractionalHamming(first_obs[a],
                                                          first_obs[b]);
            ++inter_count;
        }
    }

    m.intra_chip_hd = intra_count ? intra_total / intra_count : 0.0;
    m.inter_chip_hd = inter_count ? inter_total / inter_count : 0.0;
    m.uniformity = ones_count ? ones_total / ones_count : 0.0;
    return m;
}

} // namespace voltboot
