# CTest script: end-to-end round trip of the command-line tools.
# Invoked as:
#   cmake -DTRAIN=... -DPREDICT=... -DINFO=... -DSERVE=...
#         -DLOADGEN=... -DWORKDIR=... -P cli_test.cmake

# Deterministic two-class CSV: class from the sign of feature 0.
set(csv "${WORKDIR}/cli_demo.csv")
set(lines "")
foreach(i RANGE 0 199)
    math(EXPR cls "${i} % 2")
    math(EXPR base "${cls} * 10")
    math(EXPR f0 "${base} + (${i} % 5)")
    math(EXPR f1 "20 - ${base} + (${i} % 3)")
    math(EXPR f2 "(${i} % 7)")
    string(APPEND lines "${f0}.5,${f1}.25,${f2}.0,${cls}\n")
endforeach()
file(WRITE "${csv}" "${lines}")

set(model "${WORKDIR}/cli_demo_model.bin")

# --help must document --quality-out and exit cleanly.
foreach(tool TRAIN PREDICT)
    execute_process(
        COMMAND "${${tool}}" --help
        OUTPUT_VARIABLE help_out RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${tool} --help failed (${rc})")
    endif()
    if(NOT help_out MATCHES "--quality-out")
        message(FATAL_ERROR
            "${tool} --help does not mention --quality-out:\n${help_out}")
    endif()
endforeach()

# The profiler flags must stay documented on every tool that can
# record a profile (train/predict/serve plus the bench harness).
foreach(tool TRAIN PREDICT SERVE)
    execute_process(
        COMMAND "${${tool}}" --help
        OUTPUT_VARIABLE help_out RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${tool} --help failed (${rc})")
    endif()
    if(NOT help_out MATCHES "--profile-out" OR
       NOT help_out MATCHES "--profile-hz")
        message(FATAL_ERROR
            "${tool} --help does not document the profiler flags:"
            "\n${help_out}")
    endif()
endforeach()

# lookhd_info has flags too: --help must print usage and exit 0.
execute_process(
    COMMAND "${INFO}" --help
    OUTPUT_VARIABLE help_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "INFO --help failed (${rc})")
endif()
if(NOT help_out MATCHES "usage: lookhd_info")
    message(FATAL_ERROR
        "INFO --help does not print usage:\n${help_out}")
endif()

set(train_quality "${WORKDIR}/cli_train_quality.json")
execute_process(
    COMMAND "${TRAIN}" --input "${csv}" --output "${model}"
            --dim 500 --q 4 --r 3 --epochs 3 --quiet
            --quality-out "${train_quality}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "lookhd_train failed (${rc})")
endif()

# Structural check only: the sections exist. They are empty (but
# still present) when the build compiled observability out.
file(READ "${train_quality}" quality_doc)
if(NOT quality_doc MATCHES "\"margins\"" OR
   NOT quality_doc MATCHES "\"confusion\"")
    message(FATAL_ERROR
        "train --quality-out lacks margins/confusion:\n${quality_doc}")
endif()

execute_process(
    COMMAND "${INFO}" --model "${model}"
    OUTPUT_VARIABLE info_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "lookhd_info failed (${rc})")
endif()
if(NOT info_out MATCHES "dimensionality D +500")
    message(FATAL_ERROR "lookhd_info did not report D=500:\n${info_out}")
endif()

set(pred_quality "${WORKDIR}/cli_pred_quality.json")
execute_process(
    COMMAND "${PREDICT}" --model "${model}" --input "${csv}"
            --quality-out "${pred_quality}"
    OUTPUT_VARIABLE pred_out ERROR_VARIABLE pred_err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "lookhd_predict failed (${rc})")
endif()
# Perfectly separable data: the tool must report 100% on stderr.
if(NOT pred_err MATCHES "accuracy: 100")
    message(FATAL_ERROR "unexpected accuracy report: ${pred_err}")
endif()
file(READ "${pred_quality}" quality_doc)
if(NOT quality_doc MATCHES "\"margins\"" OR
   NOT quality_doc MATCHES "\"confusion\"")
    message(FATAL_ERROR
        "predict --quality-out lacks margins/confusion:\n${quality_doc}")
endif()

# --version must print the build identity (git rev + flags) and
# exit 0, on every tool that serves or generates load too.
foreach(tool TRAIN PREDICT INFO SERVE LOADGEN)
    execute_process(
        COMMAND "${${tool}}" --version
        OUTPUT_VARIABLE version_out RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${tool} --version failed (${rc})")
    endif()
    if(NOT version_out MATCHES "git-" OR
       NOT version_out MATCHES "obs=" OR
       NOT version_out MATCHES "sanitize=")
        message(FATAL_ERROR
            "${tool} --version lacks build identity:\n${version_out}")
    endif()
endforeach()

# Error paths: bad model file must fail cleanly.
execute_process(
    COMMAND "${INFO}" --model "${csv}"
    RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(rc EQUAL 0)
    message(FATAL_ERROR "lookhd_info accepted a non-model file")
endif()

# Fail closed: an option no tool reads, a value that is not wholly a
# number, a negative count or a port above 65535 exits non-zero
# before anything starts, with a message naming the option. The
# serve cases carry --max-seconds 1 so that a build which ignores the
# bad option exits instead of serving forever.
function(expect_rejected tool option)
    execute_process(
        COMMAND "${${tool}}" ${ARGN}
        OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(rc EQUAL 0 OR out MATCHES "listening on" OR
       NOT err MATCHES "${option}")
        message(FATAL_ERROR
            "${tool} ${ARGN}: expected a non-zero exit naming "
            "${option} before anything starts (rc ${rc})\n"
            "stdout: ${out}\nstderr: ${err}")
    endif()
endfunction()

set(serve_args --model "${model}" --metrics-port 0 --max-seconds 1)
foreach(tool TRAIN PREDICT INFO LOADGEN)
    expect_rejected(${tool} --no-such-option --no-such-option 1)
endforeach()
expect_rejected(SERVE --no-such-option
    ${serve_args} --port 0 --no-such-option 1)
expect_rejected(SERVE --batch-delay-us
    ${serve_args} --port 0 --batch-delay-us 200)
expect_rejected(SERVE --drift-ref
    ${serve_args} --port 0 --drift-ref x)
expect_rejected(SERVE --event-log
    ${serve_args} --port 0 --event-log x)
expect_rejected(SERVE --port ${serve_args} --port 70000)
expect_rejected(SERVE --window-s
    ${serve_args} --port 0 --window-s abc)
expect_rejected(SERVE --queue-cap
    ${serve_args} --port 0 --queue-cap -1)

message(STATUS "cli round trip OK")
