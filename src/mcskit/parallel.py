"""Empty: mcskit starts no threads of its own.

The thread-pool helper that lived here had no caller. The module stays only
because perfbench/spans.py imports every module in its MODULES list; ROADMAP
item 1 deletes it in the next change to the benchmark.
"""
