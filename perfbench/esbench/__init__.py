"""Benchmark harness for the esphere library.

The harness lives apart from the library: it imports ``esphere`` from the
checkout's ``src`` directory, drives it through its public functions and
command line, times the calls from outside and checks every output against
an independent closed-form oracle.
"""
