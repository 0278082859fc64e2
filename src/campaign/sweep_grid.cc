#include "campaign/sweep_grid.hh"

#include <charconv>
#include <cmath>
#include <sstream>

#include "sim/logging.hh"

namespace voltboot
{

const char *
toString(AttackKind kind)
{
    for (const AttackName &a : kAttackNames)
        if (a.kind == kind)
            return a.name;
    panic("bad AttackKind");
}

const char *
toString(TargetRam target)
{
    switch (target) {
      case TargetRam::DCache: return "dcache";
      case TargetRam::ICache: return "icache";
      case TargetRam::Regs: return "regs";
      case TargetRam::Iram: return "iram";
      case TargetRam::Tlb: return "tlb";
      case TargetRam::Btb: return "btb";
    }
    panic("bad TargetRam");
}

namespace
{

/** "voltboot|coldboot|..." over every attack family. */
std::string
attackNameList()
{
    std::string out;
    for (const AttackName &a : kAttackNames)
        out += std::string(out.empty() ? "" : "|") + a.name;
    return out;
}

} // namespace

AttackKind
attackFromString(const std::string &name)
{
    for (const AttackName &a : kAttackNames)
        if (name == a.name)
            return a.kind;
    fatal("unknown attack '", name, "' (", attackNameList(), ")");
}

TargetRam
targetFromString(const std::string &name)
{
    if (name == "dcache")
        return TargetRam::DCache;
    if (name == "icache")
        return TargetRam::ICache;
    if (name == "regs")
        return TargetRam::Regs;
    if (name == "iram")
        return TargetRam::Iram;
    if (name == "tlb")
        return TargetRam::Tlb;
    if (name == "btb")
        return TargetRam::Btb;
    fatal("unknown target '", name,
          "' (dcache|icache|regs|iram|tlb|btb)");
}

uint64_t
SweepGrid::size() const
{
    return static_cast<uint64_t>(boards.size()) * targets.size() *
           attacks.size() * temps_c.size() * offs_ms.size() *
           currents_a.size() * impedances_mohm.size() *
           glitch_offs_ns.size() * glitch_widths_ns.size() *
           glitch_depths_v.size() * undervolt_depths_v.size() *
           holds_ns.size() * readout_rates.size() *
           cpa_windows_ns.size() * dump_counts.size() *
           use_priors.size() * plant_key.size() * seed_count;
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
    auto take = [&rem](size_t n) {
        const uint64_t v = rem % n;
        rem /= n;
        return static_cast<size_t>(v);
    };
    // Fastest-varying axis first (seed innermost, board outermost).
    spec.seed_index = take(static_cast<size_t>(seed_count));
    spec.plant_key = plant_key[take(plant_key.size())];
    spec.use_priors = use_priors[take(use_priors.size())];
    spec.dump_count = dump_counts[take(dump_counts.size())];
    spec.cpa_window_ns = cpa_windows_ns[take(cpa_windows_ns.size())];
    spec.readout_rate = readout_rates[take(readout_rates.size())];
    spec.hold_ns = holds_ns[take(holds_ns.size())];
    spec.undervolt_depth_v =
        undervolt_depths_v[take(undervolt_depths_v.size())];
    spec.glitch_depth_v = glitch_depths_v[take(glitch_depths_v.size())];
    spec.glitch_width_ns =
        glitch_widths_ns[take(glitch_widths_ns.size())];
    spec.glitch_off_ns = glitch_offs_ns[take(glitch_offs_ns.size())];
    spec.impedance_mohm = impedances_mohm[take(impedances_mohm.size())];
    spec.current_a = currents_a[take(currents_a.size())];
    spec.off_ms = offs_ms[take(offs_ms.size())];
    spec.temp_c = temps_c[take(temps_c.size())];
    spec.attack = attacks[take(attacks.size())];
    spec.target = targets[take(targets.size())];
    spec.board = boards[take(boards.size())];
    return spec;
}

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

double
parseDoubleStrict(const std::string &text, const char *what)
{
    const std::string t = trim(text);
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(t.data(), t.data() + t.size(), value);
    if (ec != std::errc() || ptr != t.data() + t.size())
        fatal("malformed ", what, " value '", text, "'");
    // from_chars accepts nan/inf, which JSON cannot carry.
    if (!std::isfinite(value))
        fatal("non-finite ", what, " value '", text, "'");
    return value;
}

uint64_t
parseUintStrict(const std::string &text, const char *what)
{
    const std::string t = trim(text);
    uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(t.data(), t.data() + t.size(), value);
    if (ec != std::errc() || ptr != t.data() + t.size())
        fatal("malformed ", what, " value '", text, "'");
    return value;
}

std::vector<double>
parseDoubleList(const std::string &text, const char *what)
{
    std::vector<double> out;
    for (const std::string &item : split(text, ','))
        out.push_back(parseDoubleStrict(item, what));
    if (out.empty())
        fatal("empty value list for ", what);
    return out;
}

/** Shortest round-trip decimal rendering of a double. */
std::string
formatDouble(double value)
{
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    if (ec != std::errc())
        panic("formatDouble: to_chars failed");
    return {buf, ptr};
}

std::string
joinDoubles(const std::vector<double> &values)
{
    std::string out;
    for (size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ',';
        out += formatDouble(values[i]);
    }
    return out;
}

} // namespace

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
        const std::string key = trim(entry.substr(0, eq));
        const std::string value = entry.substr(eq + 1);
        if (trim(value).empty())
            fatal("empty value list for grid key '", key, "'");
        if (key == "board") {
            grid.boards.clear();
            for (const std::string &b : split(value, ','))
                grid.boards.push_back(trim(b));
        } else if (key == "target") {
            grid.targets.clear();
            for (const std::string &t : split(value, ','))
                grid.targets.push_back(targetFromString(trim(t)));
        } else if (key == "attack") {
            grid.attacks.clear();
            for (const std::string &a : split(value, ','))
                grid.attacks.push_back(attackFromString(trim(a)));
        } else if (key == "temp") {
            grid.temps_c = parseDoubleList(value, "temp");
        } else if (key == "off-ms") {
            grid.offs_ms = parseDoubleList(value, "off-ms");
        } else if (key == "current") {
            grid.currents_a = parseDoubleList(value, "current");
        } else if (key == "impedance-mohm") {
            grid.impedances_mohm =
                parseDoubleList(value, "impedance-mohm");
        } else if (key == "glitch-off-ns") {
            grid.glitch_offs_ns = parseDoubleList(value, "glitch-off-ns");
        } else if (key == "glitch-width-ns") {
            grid.glitch_widths_ns =
                parseDoubleList(value, "glitch-width-ns");
        } else if (key == "glitch-depth") {
            grid.glitch_depths_v = parseDoubleList(value, "glitch-depth");
        } else if (key == "undervolt-depth") {
            grid.undervolt_depths_v =
                parseDoubleList(value, "undervolt-depth");
        } else if (key == "hold-ns") {
            grid.holds_ns = parseDoubleList(value, "hold-ns");
        } else if (key == "readout-rate") {
            grid.readout_rates = parseDoubleList(value, "readout-rate");
        } else if (key == "cpa-window-ns") {
            grid.cpa_windows_ns = parseDoubleList(value, "cpa-window-ns");
        } else if (key == "dumps") {
            grid.dump_counts.clear();
            for (const std::string &d : split(value, ',')) {
                const uint64_t v = parseUintStrict(d, "dumps");
                if (v == 0)
                    fatal("grid key 'dumps' values must be >= 1");
                grid.dump_counts.push_back(v);
            }
        } else if (key == "prior") {
            grid.use_priors.clear();
            for (const std::string &p : split(value, ',')) {
                const uint64_t v = parseUintStrict(p, "prior");
                if (v > 1)
                    fatal("grid key 'prior' takes 0 or 1, got '", p,
                          "'");
                grid.use_priors.push_back(v != 0);
            }
        } else if (key == "key") {
            grid.plant_key.clear();
            for (const std::string &k : split(value, ',')) {
                const uint64_t v = parseUintStrict(k, "key");
                if (v > 1)
                    fatal("grid key 'key' takes 0 or 1, got '", k, "'");
                grid.plant_key.push_back(v != 0);
            }
        } else if (key == "seeds") {
            grid.seed_count = parseUintStrict(value, "seeds");
            if (grid.seed_count == 0)
                fatal("grid key 'seeds' must be >= 1");
        } else {
            fatal("unknown grid key '", key,
                  "' (board|target|attack|temp|off-ms|current|"
                  "impedance-mohm|glitch-off-ns|glitch-width-ns|"
                  "glitch-depth|undervolt-depth|hold-ns|readout-rate|"
                  "cpa-window-ns|dumps|prior|key|seeds)");
        }
    }
    if (grid.size() == 0)
        fatal("grid describes zero trials");
    return grid;
}

std::string
SweepGrid::describe() const
{
    std::string out = "board=";
    for (size_t i = 0; i < boards.size(); ++i)
        out += (i ? "," : "") + boards[i];
    out += ";target=";
    for (size_t i = 0; i < targets.size(); ++i)
        out += std::string(i ? "," : "") + toString(targets[i]);
    out += ";attack=";
    for (size_t i = 0; i < attacks.size(); ++i)
        out += std::string(i ? "," : "") + toString(attacks[i]);
    out += ";temp=" + joinDoubles(temps_c);
    out += ";off-ms=" + joinDoubles(offs_ms);
    out += ";current=" + joinDoubles(currents_a);
    out += ";impedance-mohm=" + joinDoubles(impedances_mohm);
    out += ";glitch-off-ns=" + joinDoubles(glitch_offs_ns);
    out += ";glitch-width-ns=" + joinDoubles(glitch_widths_ns);
    out += ";glitch-depth=" + joinDoubles(glitch_depths_v);
    out += ";undervolt-depth=" + joinDoubles(undervolt_depths_v);
    out += ";hold-ns=" + joinDoubles(holds_ns);
    out += ";readout-rate=" + joinDoubles(readout_rates);
    out += ";cpa-window-ns=" + joinDoubles(cpa_windows_ns);
    out += ";dumps=";
    for (size_t i = 0; i < dump_counts.size(); ++i)
        out += std::string(i ? "," : "") + std::to_string(dump_counts[i]);
    out += ";prior=";
    for (size_t i = 0; i < use_priors.size(); ++i)
        out += std::string(i ? "," : "") + (use_priors[i] ? "1" : "0");
    out += ";key=";
    for (size_t i = 0; i < plant_key.size(); ++i)
        out += std::string(i ? "," : "") + (plant_key[i] ? "1" : "0");
    out += ";seeds=" + std::to_string(seed_count);
    return out;
}

std::string
SweepGrid::axesHelp()
{
    struct AxisDoc
    {
        const char *key;
        const char *unit;
        const char *def;
        std::string values;
    };
    const AxisDoc axes[] = {
        {"board", "-", "pi4", "pi3|pi4|imx53"},
        {"target", "-", "dcache", "dcache|icache|regs|iram|tlb|btb"},
        {"attack", "-", "voltboot", attackNameList()},
        {"temp", "degC", "25", "ambient temperature list"},
        {"off-ms", "ms", "500", "power-off time list"},
        {"current", "A", "3", "probe current-limit list"},
        {"impedance-mohm", "mohm", "50", "probe source impedance list"},
        {"glitch-off-ns", "ns", "0", "pulse offset from victim entry"},
        {"glitch-width-ns", "ns", "0", "pulse width (0 = no pulse)"},
        {"glitch-depth", "V", "0", "droop below nominal (0 = no pulse)"},
        {"undervolt-depth", "V", "0", "static sag below nominal (0 = no ramp)"},
        {"hold-ns", "ns", "0", "undervolt hold time at the floor"},
        {"readout-rate", "B/us", "0", "frozen readout bandwidth (0 = unlimited)"},
        {"cpa-window-ns", "ns", "0", "CPA correlation window (0 = full block)"},
        {"dumps", "count", "1", "power-cycle dumps fused per key-recovery trial"},
        {"prior", "0|1", "0", "guide key correction by DRV decay priors"},
        {"key", "0|1", "0", "plant + scan an AES-128 schedule"},
        {"seeds", "count", "1", "chip-seed replication axis"},
    };
    std::string out =
        "axis              unit   default  values\n"
        "----              ----   -------  ------\n";
    for (const AxisDoc &a : axes) {
        std::string line = a.key;
        line.resize(18, ' ');
        std::string unit = a.unit;
        unit.resize(7, ' ');
        std::string def = a.def;
        def.resize(9, ' ');
        out += line + unit + def + a.values + "\n";
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
