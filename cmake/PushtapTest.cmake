# add_pushtap_test(<area> [SHARDS <n>])
#
# Convention-driven test registration: globs tests/<area>/test_*.cpp into a
# single pushtap_test_<area> binary, links it against the core library, the
# shared tests/test_main.cpp, and gtest, and registers it with CTest. New
# test files dropped into an existing tests/<area>/ directory are picked up
# on reconfigure with no CMake edits.
#
# With SHARDS n the binary is registered as n CTest entries <area>_0 ..
# <area>_<n-1>, each running one googletest shard (GTEST_TOTAL_SHARDS /
# GTEST_SHARD_INDEX): together they run every test exactly once, and each
# entry gets its own timeout.
function(add_pushtap_test area)
  cmake_parse_arguments(ARG "" "SHARDS" "" ${ARGN})
  file(GLOB test_sources CONFIGURE_DEPENDS
       ${PROJECT_SOURCE_DIR}/tests/${area}/test_*.cpp)
  if(NOT test_sources)
    message(FATAL_ERROR "add_pushtap_test(${area}): no test_*.cpp under tests/${area}/")
  endif()
  set(target pushtap_test_${area})
  add_executable(${target} ${test_sources} ${PROJECT_SOURCE_DIR}/tests/test_main.cpp)
  target_link_libraries(${target} PRIVATE pushtap pushtap_warnings GTest::gtest)
  target_include_directories(${target} PRIVATE ${PROJECT_SOURCE_DIR}/tests)
  if(NOT ARG_SHARDS)
    add_test(NAME ${area} COMMAND ${target})
    set_tests_properties(${area} PROPERTIES TIMEOUT 300)
    return()
  endif()
  math(EXPR last "${ARG_SHARDS} - 1")
  foreach(shard RANGE ${last})
    add_test(NAME ${area}_${shard} COMMAND ${target})
    set_tests_properties(${area}_${shard} PROPERTIES
      TIMEOUT 300
      ENVIRONMENT "GTEST_TOTAL_SHARDS=${ARG_SHARDS};GTEST_SHARD_INDEX=${shard}")
  endforeach()
endfunction()
