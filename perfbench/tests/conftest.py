from perfbench import run

run.bootstrap()
