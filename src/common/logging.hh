/**
 * @file
 * Status-message and error helpers in the gem5 idiom.
 *
 * fatal() is for user errors (bad configuration, invalid arguments) and
 * exits with code 1; panic() is for internal invariant violations and
 * aborts. inform()/warn() report status without stopping the program.
 *
 * Thread safety: every emitter assembles its full line and writes it
 * with a single call under one process-wide mutex, so messages from
 * parallel suite evaluation never interleave mid-line.
 */

#ifndef GPUMECH_COMMON_LOGGING_HH
#define GPUMECH_COMMON_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace gpumech
{

/** Print an informational message to stderr ("info: ..."). */
void inform(const std::string &msg);

/** Print a warning message to stderr ("warn: ..."). */
void warn(const std::string &msg);

/** Report a user-caused error and exit(1). */
[[noreturn]] void fatal(const std::string &msg);

/** Report an internal invariant violation and abort(). */
[[noreturn]] void panic(const std::string &msg);

/**
 * Build a message from stream-style pieces, e.g.
 * fatal(msg("bad warp count: ", n)).
 */
template <typename... Args>
std::string
msg(Args &&...args)
{
    std::ostringstream os;
    ((os << args), ...);
    return os.str();
}

} // namespace gpumech

#endif // GPUMECH_COMMON_LOGGING_HH
