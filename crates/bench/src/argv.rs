//! The command line as UTF-8 strings. The library's `cli_args` reads it
//! through here, and the `campaign` binary includes this file as its own
//! module, so every binary reads its arguments the same way.

/// The arguments after the program name. An argument that is not valid
/// UTF-8 prints `argument "<arg>" is not valid UTF-8` (decoded lossily)
/// and exits with status 2, before the caller does any work or output.
pub(crate) fn args() -> Vec<String> {
    std::env::args_os()
        .skip(1)
        .map(|arg| {
            arg.into_string().unwrap_or_else(|arg| {
                eprintln!("argument {:?} is not valid UTF-8", arg.to_string_lossy());
                std::process::exit(2)
            })
        })
        .collect()
}
