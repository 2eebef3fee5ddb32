"""MiniJ frontend: lexer, parser, type checker, and TAC code generator.

The one-call entry point is :func:`compile_source`::

    from repro.lang import compile_source
    program = compile_source(source_text)        # finalized IR Program
"""

from .. import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "ast": ("ProgramDecl",),
    "codegen": ("compile_source",),
    "errors": ("CompileError", "LexError", "ParseError", "TypeError_"),
    "formatter": ("format_program_decl", "format_source"),
    "lexer": ("tokenize",),
    "parser": ("parse",),
    "resolver": ("ClassTable", "build_class_table"),
    "typecheck": ("check",),
    "tokens": (),
})
