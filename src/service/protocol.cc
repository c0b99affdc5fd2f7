#include "service/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/json.h"

namespace qaic::service {

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::kObject)
        return nullptr;
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

namespace {

/**
 * Recursive-descent JSON parser over a bounded input. The depth bound
 * turns attacker-controlled nesting into a clean error instead of a
 * stack overflow; everything else is a straightforward reading of the
 * grammar with byte offsets in every error message.
 */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    StatusOr<JsonValue>
    parse()
    {
        JsonValue value;
        QAIC_RETURN_IF_ERROR(parseValue(&value, 0));
        skipWhitespace();
        if (pos_ != text_.size())
            return errorAt("trailing content after JSON value");
        return value;
    }

  private:
    Status
    errorAt(const std::string &what) const
    {
        return invalidArgumentError(what + " at byte " +
                                    std::to_string(pos_));
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    Status
    expectLiteral(const char *literal)
    {
        for (const char *p = literal; *p; ++p)
            if (pos_ >= text_.size() || text_[pos_++] != *p)
                return errorAt(std::string("malformed literal '") +
                               literal + "'");
        return Status::ok();
    }

    Status
    parseValue(JsonValue *out, int depth)
    {
        if (depth > kMaxJsonDepth)
            return errorAt("nesting deeper than " +
                           std::to_string(kMaxJsonDepth) + " levels");
        skipWhitespace();
        if (pos_ >= text_.size())
            return errorAt("unexpected end of input");
        switch (text_[pos_]) {
        case '{':
            return parseObject(out, depth);
        case '[':
            return parseArray(out, depth);
        case '"':
            out->kind = JsonValue::Kind::kString;
            return parseString(&out->string);
        case 't':
            out->kind = JsonValue::Kind::kBool;
            out->boolean = true;
            return expectLiteral("true");
        case 'f':
            out->kind = JsonValue::Kind::kBool;
            out->boolean = false;
            return expectLiteral("false");
        case 'n':
            out->kind = JsonValue::Kind::kNull;
            return expectLiteral("null");
        default:
            return parseNumber(out);
        }
    }

    Status
    parseObject(JsonValue *out, int depth)
    {
        out->kind = JsonValue::Kind::kObject;
        ++pos_; // '{'
        skipWhitespace();
        if (consume('}'))
            return Status::ok();
        while (true) {
            skipWhitespace();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return errorAt("expected object key string");
            std::string key;
            QAIC_RETURN_IF_ERROR(parseString(&key));
            for (const auto &[existing, unused] : out->object) {
                (void)unused;
                if (existing == key)
                    return errorAt("duplicate object key '" + key + "'");
            }
            skipWhitespace();
            if (!consume(':'))
                return errorAt("expected ':' after object key");
            JsonValue value;
            QAIC_RETURN_IF_ERROR(parseValue(&value, depth + 1));
            out->object.emplace_back(std::move(key), std::move(value));
            skipWhitespace();
            if (consume(','))
                continue;
            if (consume('}'))
                return Status::ok();
            return errorAt("expected ',' or '}' in object");
        }
    }

    Status
    parseArray(JsonValue *out, int depth)
    {
        out->kind = JsonValue::Kind::kArray;
        ++pos_; // '['
        skipWhitespace();
        if (consume(']'))
            return Status::ok();
        while (true) {
            JsonValue value;
            QAIC_RETURN_IF_ERROR(parseValue(&value, depth + 1));
            out->array.push_back(std::move(value));
            skipWhitespace();
            if (consume(','))
                continue;
            if (consume(']'))
                return Status::ok();
            return errorAt("expected ',' or ']' in array");
        }
    }

    /** Appends @p code point as UTF-8. */
    static void
    appendUtf8(std::string *out, unsigned code)
    {
        if (code < 0x80) {
            out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
            out->push_back(static_cast<char>(0xF0 | (code >> 18)));
            out->push_back(
                static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
    }

    Status
    parseHex4(unsigned *out)
    {
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size())
                return errorAt("truncated \\u escape");
            char c = text_[pos_++];
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<unsigned>(c - 'A' + 10);
            else
                return errorAt("non-hex digit in \\u escape");
        }
        *out = value;
        return Status::ok();
    }

    Status
    parseString(std::string *out)
    {
        ++pos_; // '"'
        out->clear();
        while (true) {
            if (pos_ >= text_.size())
                return errorAt("unterminated string");
            unsigned char c = static_cast<unsigned char>(text_[pos_++]);
            if (c == '"')
                return Status::ok();
            if (c < 0x20)
                return errorAt("raw control character in string");
            if (c != '\\') {
                out->push_back(static_cast<char>(c));
                continue;
            }
            if (pos_ >= text_.size())
                return errorAt("truncated escape sequence");
            char esc = text_[pos_++];
            switch (esc) {
            case '"': out->push_back('"'); break;
            case '\\': out->push_back('\\'); break;
            case '/': out->push_back('/'); break;
            case 'b': out->push_back('\b'); break;
            case 'f': out->push_back('\f'); break;
            case 'n': out->push_back('\n'); break;
            case 'r': out->push_back('\r'); break;
            case 't': out->push_back('\t'); break;
            case 'u': {
                unsigned code = 0;
                QAIC_RETURN_IF_ERROR(parseHex4(&code));
                if (code >= 0xD800 && code <= 0xDBFF) {
                    // High surrogate: a low surrogate must follow.
                    if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                        text_[pos_ + 1] != 'u')
                        return errorAt("unpaired high surrogate");
                    pos_ += 2;
                    unsigned low = 0;
                    QAIC_RETURN_IF_ERROR(parseHex4(&low));
                    if (low < 0xDC00 || low > 0xDFFF)
                        return errorAt("invalid low surrogate");
                    code = 0x10000 + ((code - 0xD800) << 10) +
                           (low - 0xDC00);
                } else if (code >= 0xDC00 && code <= 0xDFFF) {
                    return errorAt("unpaired low surrogate");
                }
                appendUtf8(out, code);
                break;
            }
            default:
                return errorAt("unknown escape sequence");
            }
        }
    }

    Status
    parseNumber(JsonValue *out)
    {
        std::size_t start = pos_;
        if (consume('-')) {
        }
        if (pos_ >= text_.size() || !std::isdigit(
                static_cast<unsigned char>(text_[pos_])))
            return errorAt("malformed number");
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (consume('.')) {
            if (pos_ >= text_.size() || !std::isdigit(
                    static_cast<unsigned char>(text_[pos_])))
                return errorAt("malformed number (bare decimal point)");
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() || !std::isdigit(
                    static_cast<unsigned char>(text_[pos_])))
                return errorAt("malformed number (empty exponent)");
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        const std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        double value = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return errorAt("malformed number");
        if (!std::isfinite(value))
            return errorAt("number out of range");
        out->kind = JsonValue::Kind::kNumber;
        out->number = value;
        return Status::ok();
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

/** Reads a string member; error when present with another type. */
Status
readString(const JsonValue &object, const std::string &key,
           std::string *out)
{
    const JsonValue *value = object.find(key);
    if (!value)
        return Status::ok();
    if (value->kind != JsonValue::Kind::kString)
        return invalidArgumentError("field '" + key +
                                    "' must be a string");
    *out = value->string;
    return Status::ok();
}

Status
readBool(const JsonValue &object, const std::string &key, bool *out)
{
    const JsonValue *value = object.find(key);
    if (!value)
        return Status::ok();
    if (value->kind != JsonValue::Kind::kBool)
        return invalidArgumentError("field '" + key +
                                    "' must be a boolean");
    *out = value->boolean;
    return Status::ok();
}

Status
readNumber(const JsonValue &object, const std::string &key, double *out)
{
    const JsonValue *value = object.find(key);
    if (!value)
        return Status::ok();
    if (value->kind != JsonValue::Kind::kNumber)
        return invalidArgumentError("field '" + key +
                                    "' must be a number");
    *out = value->number;
    return Status::ok();
}

} // namespace

StatusOr<JsonValue>
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

StatusOr<Request>
parseRequest(const std::string &line, std::size_t max_bytes)
{
    if (line.size() > max_bytes)
        return invalidArgumentError(
            "oversized frame: " + std::to_string(line.size()) +
            " bytes exceeds the " + std::to_string(max_bytes) +
            "-byte request cap");
    QAIC_ASSIGN_OR_RETURN(JsonValue root, parseJson(line));
    if (root.kind != JsonValue::Kind::kObject)
        return invalidArgumentError(
            "request frame must be a JSON object");

    Request request;
    QAIC_RETURN_IF_ERROR(readString(root, "id", &request.compile.id));

    if (root.find("op")) {
        // Control frame: {"op": "...", "id"?: "..."} and nothing else.
        std::string op;
        QAIC_RETURN_IF_ERROR(readString(root, "op", &op));
        for (const auto &[key, unused] : root.object) {
            (void)unused;
            if (key != "op" && key != "id")
                return invalidArgumentError(
                    "unknown field '" + key + "' in control request");
        }
        request.isControl = true;
        if (op == "ping")
            request.op = ControlOp::kPing;
        else if (op == "stats")
            request.op = ControlOp::kStats;
        else if (op == "shutdown")
            request.op = ControlOp::kShutdown;
        else
            return invalidArgumentError("unknown control op '" + op +
                                        "'");
        return request;
    }

    for (const auto &[key, unused] : root.object) {
        (void)unused;
        if (key != "id" && key != "qasm" && key != "strategy" &&
            key != "topology" && key != "width" && key != "schedule" &&
            key != "deadline_ms")
            return invalidArgumentError("unknown field '" + key +
                                        "' in compile request");
    }

    const JsonValue *qasm = root.find("qasm");
    if (!qasm)
        return invalidArgumentError(
            "compile request is missing the required 'qasm' field");
    if (qasm->kind != JsonValue::Kind::kString)
        return invalidArgumentError("field 'qasm' must be a string");
    request.compile.qasm = qasm->string;

    std::string strategy_name;
    QAIC_RETURN_IF_ERROR(readString(root, "strategy", &strategy_name));
    if (!strategy_name.empty() &&
        !strategyFromName(strategy_name, &request.compile.strategy))
        return invalidArgumentError("unknown strategy '" +
                                    strategy_name + "'");

    std::string topology_name;
    QAIC_RETURN_IF_ERROR(readString(root, "topology", &topology_name));
    if (!topology_name.empty() &&
        !topologyFromName(topology_name, &request.compile.topology))
        return invalidArgumentError("unknown topology '" +
                                    topology_name + "'");

    double width = request.compile.width;
    QAIC_RETURN_IF_ERROR(readNumber(root, "width", &width));
    if (width != std::floor(width) || width < 2 || width > 64)
        return invalidArgumentError(
            "field 'width' must be an integer in [2, 64]");
    request.compile.width = static_cast<int>(width);

    QAIC_RETURN_IF_ERROR(
        readBool(root, "schedule", &request.compile.wantSchedule));

    double deadline = request.compile.deadlineMs;
    QAIC_RETURN_IF_ERROR(readNumber(root, "deadline_ms", &deadline));
    if (deadline < 0 || deadline > 1e9)
        return invalidArgumentError(
            "field 'deadline_ms' must be in [0, 1e9]");
    request.compile.deadlineMs = deadline;

    return request;
}

std::string
ServiceReply::toJson() const
{
    std::string out = "{\"id\":\"" + jsonEscape(id) + "\"";
    char buf[64];
    if (!ok) {
        out += ",\"ok\":false,\"error\":{\"code\":\"";
        out += statusCodeName(error.code());
        out += "\",\"message\":\"" + jsonEscape(error.message()) +
               "\"}}";
        return out;
    }
    out += ",\"ok\":true";
    if (pong) {
        out += ",\"pong\":true}";
        return out;
    }
    if (shuttingDown) {
        out += ",\"shutting_down\":true}";
        return out;
    }
    if (!statsJson.empty()) {
        out += ",\"stats\":" + statsJson + "}";
        return out;
    }
    std::snprintf(buf, sizeof(buf), ",\"tier\":%d", tier);
    out += buf;
    out += cached ? ",\"cached\":true" : ",\"cached\":false";
    out += ",\"strategy\":\"" + jsonEscape(strategy) + "\"";
    out += ",\"fingerprint\":\"" + jsonEscape(fingerprint) + "\"";
    std::snprintf(buf, sizeof(buf), ",\"latency_ns\":%.10g", latencyNs);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"tier0_latency_ns\":%.10g",
                  tier0LatencyNs);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",\"swaps\":%d,\"instructions\":%d,\"aggregates\":%d,"
                  "\"max_width\":%d",
                  swaps, instructions, aggregates, maxWidth);
    out += buf;
    out += degraded ? ",\"degraded\":true" : ",\"degraded\":false";
    if (degraded)
        out += ",\"degraded_reason\":\"" + jsonEscape(degradedReason) +
               "\"";
    if (hasSchedule) {
        out += ",\"schedule\":[";
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            const ReplyScheduleOp &op = schedule[i];
            out += i ? ",{" : "{";
            std::snprintf(buf, sizeof(buf),
                          "\"start\":%.10g,\"duration\":%.10g,",
                          op.start, op.duration);
            out += buf;
            out += "\"gate\":\"" + jsonEscape(op.gate) + "\"}";
        }
        out += "]";
    }
    out += "}";
    return out;
}

ServiceReply
errorReply(const std::string &id, Status status)
{
    ServiceReply reply;
    reply.id = id;
    reply.ok = false;
    reply.error = std::move(status);
    return reply;
}

} // namespace qaic::service
