#include "campaign/sweep_grid.hh"

#include <charconv>
#include <cmath>
#include <sstream>

#include "sim/logging.hh"

namespace voltboot
{

namespace
{

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(s);
    while (std::getline(in, item, sep))
        out.push_back(item);
    return out;
}

/** Parse @p text as one whole number of type @p T (fatal() if not). */
template <class T>
T
parseNumber(const std::string &text, const char *key)
{
    const std::string t = trim(text);
    T value{};
    const auto [ptr, ec] =
        std::from_chars(t.data(), t.data() + t.size(), value);
    if (ec != std::errc() || ptr != t.data() + t.size())
        fatal("malformed ", key, " value '", text, "'");
    return value;
}

/** One value of @p axis, in its member's type, with its checks. */
FieldValue
parseAxisValue(const GridAxis &axis, const std::string &text)
{
    return std::visit(
        [&]<class T>(T &(*)(TrialSpec &)) -> FieldValue {
            if constexpr (std::is_same_v<T, std::string>) {
                return trim(text);
            } else if constexpr (std::is_same_v<T, double>) {
                const double v = parseNumber<double>(text, axis.key);
                // from_chars accepts nan/inf, which JSON cannot carry.
                if (!std::isfinite(v))
                    fatal("non-finite ", axis.key, " value '", text, "'");
                return v;
            } else if constexpr (std::is_same_v<T, bool>) {
                const uint64_t v = parseNumber<uint64_t>(text, axis.key);
                if (v > 1)
                    fatal("grid key '", axis.key, "' takes 0 or 1, got '",
                          text, "'");
                return v != 0;
            } else if constexpr (std::is_same_v<T, uint64_t>) {
                const uint64_t v = parseNumber<uint64_t>(text, axis.key);
                if (v < axis.min)
                    fatal("grid key '", axis.key,
                          axis.replicas ? "' must be >= "
                                        : "' values must be >= ",
                          axis.min);
                return v;
            } else {
                const std::string name = trim(text);
                if (const auto v = enumFromName<T>(name))
                    return *v;
                fatal("unknown ", axis.key, " '", name, "' (",
                      enumNameList<T>(), ")");
            }
        },
        axis.member);
}

/** '|'-joined keys of every axis. */
std::string
axisKeyList()
{
    std::string out;
    for (const GridAxis &axis : kGridAxes)
        out += std::string(out.empty() ? "" : "|") + axis.key;
    return out;
}

} // namespace

SweepGrid::SweepGrid()
{
    const TrialSpec defaults;
    for (size_t a = 0; a < values_.size(); ++a)
        values_[a] = {kGridAxes[a].replicas
                          ? FieldValue(uint64_t{1})
                          : readMember(kGridAxes[a].member, defaults)};
}

uint64_t
SweepGrid::axisSize(size_t axis) const
{
    return kGridAxes[axis].replicas ? std::get<uint64_t>(values_[axis][0])
                                    : values_[axis].size();
}

uint64_t
SweepGrid::size() const
{
    uint64_t n = 1;
    for (size_t a = 0; a < values_.size(); ++a)
        n *= axisSize(a);
    return n;
}

TrialSpec
SweepGrid::at(uint64_t index) const
{
    if (index >= size())
        panic("SweepGrid::at: index ", index, " out of range (size ",
              size(), ")");
    TrialSpec spec;
    spec.index = index;
    uint64_t rem = index;
    // Fastest-varying axis first: the table's last row.
    for (size_t a = values_.size(); a-- > 0;) {
        const uint64_t n = axisSize(a);
        const uint64_t digit = rem % n;
        rem /= n;
        writeMember(kGridAxes[a].member, spec,
                    kGridAxes[a].replicas ? FieldValue(digit)
                                          : values_[a][digit]);
    }
    return spec;
}

void
SweepGrid::set(const std::string &key, const std::string &values)
{
    for (size_t a = 0; a < values_.size(); ++a) {
        const GridAxis &axis = kGridAxes[a];
        if (key != axis.key)
            continue;
        if (trim(values).empty())
            fatal("empty value list for grid key '", key, "'");
        // A replicas axis takes one count, not a list.
        const std::vector<std::string> items =
            axis.replicas ? std::vector<std::string>{values}
                          : split(values, ',');
        values_[a].clear();
        for (const std::string &item : items)
            values_[a].push_back(parseAxisValue(axis, item));
        // size() multiplies the axis sizes unchecked, so keep their
        // product in range; a one-value axis cannot push it out.
        for (uint64_t b = 0, n = 1; axisSize(a) > 1 && b < values_.size();
             ++b)
            if (__builtin_mul_overflow(n, axisSize(b), &n)) {
                values_[a] = SweepGrid().values_[a];
                fatal("grid describes more than 2^64-1 trials");
            }
        return;
    }
    fatal("unknown grid key '", key, "' (", axisKeyList(), ")");
}

SweepGrid
SweepGrid::parse(const std::string &spec)
{
    SweepGrid grid;
    // Normalise newlines to ';' and strip '#' comments per line.
    std::string flat;
    for (const std::string &line : split(spec, '\n')) {
        const auto hash = line.find('#');
        flat += line.substr(0, hash);
        flat += ';';
    }
    for (const std::string &raw : split(flat, ';')) {
        const std::string entry = trim(raw);
        if (entry.empty())
            continue;
        const auto eq = entry.find('=');
        if (eq == std::string::npos)
            fatal("grid entry '", entry, "' is not key=value");
        grid.set(trim(entry.substr(0, eq)), entry.substr(eq + 1));
    }
    if (grid.size() == 0)
        fatal("grid describes zero trials");
    return grid;
}

std::string
SweepGrid::describe() const
{
    std::string out;
    for (size_t a = 0; a < values_.size(); ++a) {
        out += std::string(a ? ";" : "") + kGridAxes[a].key + "=";
        for (size_t i = 0; i < values_[a].size(); ++i)
            out += (i ? "," : "") + plainText(values_[a][i]);
    }
    return out;
}

std::string
SweepGrid::axesHelp()
{
    const SweepGrid defaults;
    std::string out =
        "axis              unit   default  values\n"
        "----              ----   -------  ------\n";
    auto column = [](std::string text, size_t width) {
        text.resize(width, ' ');
        return text;
    };
    for (size_t a = 0; a < defaults.values_.size(); ++a) {
        const GridAxis &axis = kGridAxes[a];
        const std::string values =
            axis.help ? axis.help
                      : std::visit(
                            []<class T>(T &(*)(TrialSpec &)) {
                                if constexpr (std::is_enum_v<T>)
                                    return enumNameList<T>();
                                else
                                    return std::string();
                            },
                            axis.member);
        out += column(axis.key, 18) + column(axis.unit, 7) +
               column(plainText(defaults.values_[a][0]), 9) + values +
               "\n";
    }
    out += "\nEnumeration order: the board axis varies slowest, the "
           "chip-seed index\nfastest; axes in between follow the order "
           "above from bottom to top.\nGlitch axes apply to "
           "attack=glitch trials only; undervolt-depth, hold-ns\nand "
           "readout-rate to attack=static-extract; cpa-window-ns to\n"
           "attack=voltage-coupling; dumps and prior to "
           "attack=key-recovery.\n";
    return out;
}

} // namespace voltboot
