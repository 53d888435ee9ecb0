"""Federation serve benchmark for the ``repro`` dReDBox model.

``python3 fedbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; ``python3 fedbench/compare.py``
compares two result files.  See ``fedbench/README.md``.
"""
