/**
 * @file
 * Minimal logging and error-reporting helpers.
 *
 * Follows the gem5 convention: fatal() is for user error (bad
 * configuration, invalid arguments) and exits cleanly; panic() is for
 * internal invariant violations and aborts.
 */

#ifndef VOLTBOOT_SIM_LOGGING_HH
#define VOLTBOOT_SIM_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace voltboot
{

/** Exception thrown for user-level configuration/usage errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Exception thrown when an internal invariant is violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

namespace detail
{

inline void
format(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
format(std::ostringstream &os, const T &head, const Rest &...rest)
{
    os << head;
    format(os, rest...);
}

template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream os;
    format(os, args...);
    return os.str();
}

} // namespace detail

/** Report a user-level error; throws FatalError. */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    throw FatalError(detail::concat(args...));
}

/** Report an internal invariant violation; throws PanicError. */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    throw PanicError(detail::concat(args...));
}

} // namespace voltboot

#endif // VOLTBOOT_SIM_LOGGING_HH
