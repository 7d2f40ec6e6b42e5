# The benchmark's build file. run.py configures the repository root with
#
#     -DCMAKE_PROJECT_INCLUDE=<this file>
#
# which CMake includes right after the root project() call. The module
# CMakeLists under src/ resolve paths from CMAKE_SOURCE_DIR, so they only
# configure with the repository root as the top-level project; deferring
# the target definition to the end of the root CMakeLists lets the
# benchmark link every library target exactly as the repository defines
# it, without editing any repository build file.
cmake_minimum_required(VERSION 3.19)

set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_target)
    # Link every library module under src/, discovered rather than
    # listed, so merging or splitting modules keeps the benchmark
    # building.
    set(libs)
    get_property(src_dirs DIRECTORY "${CMAKE_SOURCE_DIR}/src"
                 PROPERTY SUBDIRECTORIES)
    foreach(dir IN ITEMS "${CMAKE_SOURCE_DIR}/src" LISTS src_dirs)
        get_property(targets DIRECTORY "${dir}" PROPERTY BUILDSYSTEM_TARGETS)
        foreach(target IN LISTS targets)
            get_target_property(type ${target} TYPE)
            if(type MATCHES "^(STATIC|SHARED)_LIBRARY$")
                list(APPEND libs ${target})
            endif()
        endforeach()
    endforeach()

    add_executable(perfbench_e2e EXCLUDE_FROM_ALL
        ${PERFBENCH_DIR}/src/main.cpp
        ${PERFBENCH_DIR}/src/spans.cpp
        ${PERFBENCH_DIR}/src/traced.cpp
        ${PERFBENCH_DIR}/src/outcomes.cpp
        ${PERFBENCH_DIR}/src/bakeoff.cpp
        ${PERFBENCH_DIR}/src/fleet.cpp
        ${PERFBENCH_DIR}/src/vsafe_sweep.cpp
        ${PERFBENCH_DIR}/src/trace_replay.cpp
    )
    target_include_directories(perfbench_e2e PRIVATE
                               "${CMAKE_SOURCE_DIR}/src")
    target_link_libraries(perfbench_e2e PRIVATE ${libs})

    # Host context printed with every result.
    string(TOUPPER "${CMAKE_BUILD_TYPE}" build_upper)
    target_compile_definitions(perfbench_e2e PRIVATE
        PERFBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}"
        PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
        PERFBENCH_FLAGS="${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${build_upper}}"
    )
    set_target_properties(perfbench_e2e PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/perfbench")
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL perfbench_add_target)
