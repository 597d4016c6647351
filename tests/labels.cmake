# Included by ctest via TEST_INCLUDE_FILES *after* the gtest-generated
# registration scripts (tests/CMakeLists.txt appends it last), so every
# discovered test already exists here. gtest_discover_tests cannot forward
# a list-valued LABELS property ("slow;serving" flattens into two
# arguments on the way through its argument serialization), and ctest's
# testfile interpreter has no set_property(TEST ... APPEND), so the extra
# labels are applied in this one post-pass: each test's final list is its
# base label ("slow" for the suites in AGSC_SLOW_TESTS, "fast" otherwise)
# followed by the labels of every matching row below, in row order, and is
# set once.
#
# Rows: {suite, test-name regex, label}. The suite selects the generated
# <suite>*_tests.cmake includes.
set(_agsc_overload "Overload|Fairness|Admission|Quarantine|Flood|Shed|Brownout|Health|PublishRejectAccounting|CancelClient")
set(_agsc_label_rows
  serving_soak_test      ".*"                 serving
  net_test               ".*"                 net
  # Saturation campaign (`ctest -L overload`): admission control,
  # fairness, brownout, quarantine.
  dispatch_server_test   "${_agsc_overload}"  overload
  serving_soak_test      "${_agsc_overload}"  overload)
set(_agsc_slow_suites "@AGSC_SLOW_TESTS@")

set(_agsc_labelled)
list(LENGTH _agsc_label_rows _agsc_n)
math(EXPR _agsc_last "${_agsc_n} - 1")
foreach(_agsc_i RANGE 0 ${_agsc_last} 3)
  list(SUBLIST _agsc_label_rows ${_agsc_i} 3 _agsc_row)
  list(GET _agsc_row 0 _agsc_suite)
  list(GET _agsc_row 1 _agsc_regex)
  list(GET _agsc_row 2 _agsc_label)
  list(FIND _agsc_slow_suites "${_agsc_suite}" _agsc_slow)
  if(_agsc_slow EQUAL -1)
    set(_agsc_base fast)
  else()
    set(_agsc_base slow)
  endif()
  file(GLOB _agsc_includes "${CMAKE_CURRENT_LIST_DIR}/${_agsc_suite}*_tests.cmake")
  foreach(_agsc_file IN LISTS _agsc_includes)
    file(STRINGS "${_agsc_file}" _agsc_adds REGEX "add_test")
    foreach(_agsc_line IN LISTS _agsc_adds)
      string(REGEX MATCH "add_test\\( *\\[=\\[([^]]+)\\]=\\]" _agsc_m "${_agsc_line}")
      # Copy the capture out before the next MATCHES clobbers CMAKE_MATCH_1.
      set(_agsc_name "${CMAKE_MATCH_1}")
      if(_agsc_name AND _agsc_name MATCHES "${_agsc_regex}")
        if(NOT DEFINED "_agsc_labels_${_agsc_name}")
          set("_agsc_labels_${_agsc_name}" ${_agsc_base})
          list(APPEND _agsc_labelled "${_agsc_name}")
        endif()
        list(APPEND "_agsc_labels_${_agsc_name}" ${_agsc_label})
      endif()
    endforeach()
  endforeach()
endforeach()
foreach(_agsc_name IN LISTS _agsc_labelled)
  set_tests_properties("${_agsc_name}" PROPERTIES LABELS "${_agsc_labels_${_agsc_name}}")
endforeach()
