/**
 * @file
 * JSON string escaping shared by every hand-rendered JSON writer: the
 * analyzer's report serializer, the service protocol's replies and the
 * qaicc --json output.
 */
#ifndef QAIC_UTIL_JSON_H
#define QAIC_UTIL_JSON_H

#include <string>

namespace qaic {

/**
 * Escapes @p s for use inside a JSON string literal: quote, backslash,
 * newline and tab get their short escapes, every other control byte
 * becomes \uXXXX, and all other bytes pass through unchanged.
 */
std::string jsonEscape(const std::string &s);

} // namespace qaic

#endif // QAIC_UTIL_JSON_H
