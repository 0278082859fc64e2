#include "campaign/schema.hh"

#include "trace/trace.hh"

namespace voltboot
{

std::string
plainText(const FieldValue &value)
{
    return std::visit(
        []<class T>(const T &v) -> std::string {
            if constexpr (std::is_same_v<T, std::string>)
                return v;
            else if constexpr (std::is_same_v<T, bool>)
                return v ? "1" : "0";
            else if constexpr (std::is_same_v<T, double>)
                return trace::jsonNumber(v);
            else if constexpr (std::is_same_v<T, uint64_t>)
                return std::to_string(v);
            else
                return toString(v);
        },
        value);
}

std::string
jsonText(const FieldValue &value)
{
    if (const bool *b = std::get_if<bool>(&value))
        return *b ? "true" : "false";
    if (std::holds_alternative<uint64_t>(value) ||
        std::holds_alternative<double>(value))
        return plainText(value);
    return trace::jsonQuote(plainText(value));
}

} // namespace voltboot
