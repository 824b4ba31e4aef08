#pragma once

/**
 * @file
 * The OLAP engine's execution modes as explicit test data: every
 * combination of OlapConfig::optimize and OlapConfig::resultCache.
 * A suite whose property must hold in every mode loops over
 * kEngineModes and applies each entry to the config it builds, so
 * each mode runs in every build and under every sanitizer.
 */

#include <array>

#include "olap/olap_engine.hpp"

namespace pushtap::testsupport {

struct EngineMode
{
    const char *name; ///< For failure messages.
    bool optimize;
    bool resultCache;

    /** @p cfg with this mode's two flags set. */
    olap::OlapConfig
    apply(olap::OlapConfig cfg) const
    {
        cfg.optimize = optimize;
        cfg.resultCache = resultCache;
        return cfg;
    }
};

inline constexpr std::array<EngineMode, 4> kEngineModes{{
    {"plain", false, false},
    {"optimize", true, false},
    {"resultCache", false, true},
    {"optimize+resultCache", true, true},
}};

} // namespace pushtap::testsupport
