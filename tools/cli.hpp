/**
 * @file
 * Minimal argv option parser shared by the command-line tools.
 *
 * It fails closed: a tool declares every option it reads with the
 * kind of value it takes, and the constructor rejects an option no
 * tool declared, a value that is not wholly a number, a negative
 * count, or a port above 65535 - before the tool does any work, and
 * with a message that names the option. A mistyped or retired flag
 * therefore stops the tool instead of being silently ignored, and a
 * negative count never wraps to SIZE_MAX.
 */

#ifndef LOOKHD_TOOLS_CLI_HPP
#define LOOKHD_TOOLS_CLI_HPP

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

namespace lookhd::tools {

/** The value a declared option takes. */
enum class Opt
{
    kFlag,   ///< no value (--quiet)
    kText,   ///< any string (--model model.bin)
    kCount,  ///< whole number >= 0 (--workers 2)
    kNumber, ///< finite decimal number (--window-s 0.5)
    kPort,   ///< whole number in [0, 65535] (--port 7070)
};

/** Parsed command line: declared --key value options and --flags. */
class Args
{
  public:
    /**
     * @param argc/argv Program arguments.
     * @param options Every option (name without --) the tool reads.
     * @throws std::invalid_argument naming the offending option.
     */
    Args(int argc, char **argv, std::map<std::string, Opt> options)
        : options_(std::move(options))
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0)
                throw std::invalid_argument("unexpected argument: " +
                                            arg);
            const std::string name = arg.substr(2);
            const auto it = options_.find(name);
            if (it == options_.end())
                throw std::invalid_argument("unknown option --" + name);
            if (it->second == Opt::kFlag) {
                flags_.insert(name);
                continue;
            }
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for --" +
                                            name);
            const std::string value = argv[++i];
            checkValue(name, it->second, value);
            values_[name] = value;
        }
    }

    bool has(const std::string &flag) const
    {
        declared(flag);
        return flags_.count(flag) > 0;
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        declared(key);
        const auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    std::string
    require(const std::string &key) const
    {
        declared(key);
        const auto it = values_.find(key);
        if (it == values_.end())
            throw std::invalid_argument("missing required --" + key);
        return it->second;
    }

    long
    getInt(const std::string &key, long fallback) const
    {
        declared(key);
        const auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        return std::strtol(it->second.c_str(), nullptr, 10);
    }

    double
    getDouble(const std::string &key, double fallback) const
    {
        declared(key);
        const auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        return std::strtod(it->second.c_str(), nullptr);
    }

  private:
    /** Reading an undeclared option is a tool bug, not user error. */
    void declared(const std::string &key) const
    {
        if (options_.count(key) == 0)
            throw std::logic_error("option --" + key +
                                   " is read but not declared");
    }

    static void
    checkValue(const std::string &name, Opt kind,
               const std::string &value)
    {
        if (kind == Opt::kText)
            return;
        // strto* skip leading blanks and stop at the first bad
        // character; a whole-number value has neither.
        const bool blank =
            value.empty() ||
            std::isspace(static_cast<unsigned char>(value.front()));
        char *end = nullptr;
        errno = 0;
        if (kind == Opt::kNumber) {
            const double v = std::strtod(value.c_str(), &end);
            if (blank || *end != '\0' || errno == ERANGE ||
                !std::isfinite(v))
                throw std::invalid_argument(
                    "--" + name + " expects a number, got '" + value +
                    "'");
            return;
        }
        const long v = std::strtol(value.c_str(), &end, 10);
        if (blank || *end != '\0' || errno == ERANGE)
            throw std::invalid_argument("--" + name +
                                        " expects a whole number, "
                                        "got '" +
                                        value + "'");
        if (v < 0)
            throw std::invalid_argument(
                "--" + name + " must not be negative, got " + value);
        if (kind == Opt::kPort && v > 65535)
            throw std::invalid_argument(
                "--" + name + " is not a port (0-65535): " + value);
    }

    std::map<std::string, Opt> options_;
    std::map<std::string, std::string> values_;
    std::set<std::string> flags_;
};

} // namespace lookhd::tools

#endif // LOOKHD_TOOLS_CLI_HPP
