# Writes bench_commit.hpp, the commit the bench binaries stamp on their
# BENCH_*.json records (bench/bench_util.hpp). The bench targets run it at
# every build, so the stamp follows commits and edits without a reconfigure:
#   cmake -DSOURCE_DIR=<repo> -DGIT_EXECUTABLE=<git> -DOUTPUT=<header> \
#     -P cmake/bench_commit.cmake
# The commit is `git rev-parse --short HEAD`, with "-dirty" appended when
# tracked files differ from HEAD, or "unknown" without git or a .git. The
# header is rewritten only when the value changes, so an unchanged stamp
# recompiles nothing.
cmake_minimum_required(VERSION 3.16)

set(commit "unknown")
if(GIT_EXECUTABLE AND EXISTS "${SOURCE_DIR}/.git")
  execute_process(COMMAND "${GIT_EXECUTABLE}" rev-parse --short HEAD
    WORKING_DIRECTORY "${SOURCE_DIR}"
    OUTPUT_VARIABLE head OUTPUT_STRIP_TRAILING_WHITESPACE
    RESULT_VARIABLE head_failed ERROR_QUIET)
  if(NOT head_failed AND head)
    execute_process(COMMAND "${GIT_EXECUTABLE}" diff --quiet HEAD
      WORKING_DIRECTORY "${SOURCE_DIR}"
      RESULT_VARIABLE dirty ERROR_QUIET)
    set(commit "${head}")
    if(dirty)
      string(APPEND commit "-dirty")
    endif()
  endif()
endif()

set(content "#define A2A_BENCH_COMMIT \"${commit}\"\n")
set(old "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" old)
endif()
if(NOT "${old}" STREQUAL "${content}")
  file(WRITE "${OUTPUT}" "${content}")
endif()
