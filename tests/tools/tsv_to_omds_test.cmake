# Drives tools/tsv_to_omds end to end (run with cmake -P, given TOOL and
# WORKDIR): a small TSV converts, the tool reports its record count and the
# output starts with the OMDS magic; a TSV with a NaN rating is refused and
# leaves no output file behind.
file(MAKE_DIRECTORY "${WORKDIR}")
set(header "user_id\titem_id\trating\tsummary\tfull_text\n")

file(WRITE "${WORKDIR}/small.tsv"
  "${header}1\t10\t5\tgreat\tgreat read\n2\t10\t4.5\tgood\t\n3\t11\t1\tno\\tpe\tbad\n")
file(REMOVE "${WORKDIR}/small.omds")
execute_process(
  COMMAND "${TOOL}" --in=${WORKDIR}/small.tsv --out=${WORKDIR}/small.omds
          --name=Books
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "conversion failed (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "3 records -> ")
  message(FATAL_ERROR "unexpected report: ${out}")
endif()
file(READ "${WORKDIR}/small.omds" magic LIMIT 7)
if(NOT magic MATCHES "^OMDSv01")
  message(FATAL_ERROR "output is not an OMDS file: '${magic}'")
endif()

file(WRITE "${WORKDIR}/nan.tsv" "${header}1\t10\tnan\tx\tx\n")
file(REMOVE "${WORKDIR}/nan.omds")
execute_process(
  COMMAND "${TOOL}" --in=${WORKDIR}/nan.tsv --out=${WORKDIR}/nan.omds
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "a NaN rating was accepted: ${out}")
endif()
if(NOT err MATCHES "nan.tsv:2:")
  message(FATAL_ERROR "rejection lacks the row location: ${err}")
endif()
if(EXISTS "${WORKDIR}/nan.omds")
  message(FATAL_ERROR "a refused conversion left an output file")
endif()
