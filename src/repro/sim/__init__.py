"""Logic simulation substrates: ternary compiled simulation, 64-way
bit-parallel two-valued simulation on compiled word-op kernels, and the
five-valued rail-code kernel behind the ATPG implication loop."""

from .compile import (
    CompiledProgram,
    FiveValuedProgram,
    TernaryWordProgram,
    clear_program_cache,
    compile_plan,
    compiled_program_cached,
    pack_ternary_patterns,
    unpack_ternary_word,
)
from .logicsim import SimTrace, TernarySimulator, values_by_name
from .parallel import (
    WORD_BITS,
    BoundStepper,
    ParallelSimulator,
    pack_patterns,
    unpack_word,
)

__all__ = [
    "BoundStepper",
    "CompiledProgram",
    "FiveValuedProgram",
    "ParallelSimulator",
    "SimTrace",
    "TernarySimulator",
    "TernaryWordProgram",
    "WORD_BITS",
    "clear_program_cache",
    "compile_plan",
    "compiled_program_cached",
    "pack_patterns",
    "pack_ternary_patterns",
    "unpack_ternary_word",
    "unpack_word",
    "values_by_name",
]
